#ifndef DCP_OBS_METRICS_H_
#define DCP_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dcp::obs {

/// Monotonic event count. Handles are registered once and cached by the
/// instrumented component, so the hot path is a single uint64 add.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, epoch numbers).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram over sim-time quantities. Bucket bounds are
/// upper edges; an implicit +inf bucket catches the tail. Observations
/// never allocate, so this is safe on hot paths; percentile queries
/// interpolate linearly inside the winning bucket (exact min/max are
/// tracked separately and clamp the estimate).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Default latency bounds: powers of two from 1 to 4096 sim-time units
  /// (protocol ops take ~4-30; the tail covers heavy-procedure retries).
  static std::vector<double> DefaultLatencyBounds();

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_counts().size() == bounds().size() + 1 (the +inf bucket).
  const std::vector<uint64_t>& bucket_counts() const { return buckets_; }

  /// Estimated percentile in [0, 100] (nearest-rank bucket + linear
  /// interpolation). Exact when all samples share a bucket edge.
  double Percentile(double p) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named metrics, ordered deterministically (std::map) so snapshots and
/// JSON exports are byte-stable across identically seeded runs. Metric
/// names use dot-separated lowercase components, coarse-to-fine:
/// "<layer>.<noun>[.<qualifier>]" — e.g. "net.sent", "net.type.lock.sent",
/// "op.write.latency". Handles returned here stay valid for the
/// registry's lifetime; callers cache them at construction time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. Re-registering an existing name returns the same
  /// handle (and ignores `bounds` for histograms).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Bounded-cardinality counter family: returns the counter named
  /// "<family>.<label>" but creates at most `max_labels` distinct labels
  /// per family — further labels all fold into "<family>.overflow". Use
  /// this for labels drawn from an unbounded id space (per-object ids in
  /// a sharded cluster) where naive per-id registration would grow the
  /// registry, the JSON snapshot and the reset cost without bound.
  /// Existing labels keep returning their own handle regardless of cap;
  /// `max_labels` is consulted only at first sight of a label (callers
  /// should pass a consistent cap per family).
  Counter* labeled_counter(const std::string& family, const std::string& label,
                           size_t max_labels = 16);

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  /// The value of counter `name`, or 0 when no such counter is
  /// registered. A lookup never registers the name, so reading an
  /// absent counter leaves every snapshot unchanged.
  uint64_t CounterValue(const std::string& name) const;

  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  /// Zeroes every metric (registration survives; handles stay valid).
  void Reset();

  /// Zeroes every metric whose name starts with `prefix`.
  void ResetPrefix(const std::string& prefix);

  /// Stable JSON snapshot:
  /// {"counters":{name:value,...},
  ///  "gauges":{name:value,...},
  ///  "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,
  ///                      "p50":..,"p95":..,"p99":..,
  ///                      "buckets":[{"le":bound,"count":n},...]},...}}
  /// Zero-valued counters/gauges and empty histograms are included —
  /// registration is part of the snapshot.
  std::string ToJson() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  /// Distinct labels created per labeled-counter family (overflow bucket
  /// excluded) — the cardinality guard for labeled_counter().
  std::map<std::string, size_t> family_sizes_;
};

}  // namespace dcp::obs

#endif  // DCP_OBS_METRICS_H_
