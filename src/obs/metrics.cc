#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/json.h"

namespace dcp::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBounds();
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_.assign(bounds_.size() + 1, 0);
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

void Histogram::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  ++buckets_[i];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: the k-th smallest sample, k in [1, count].
  uint64_t rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(clamped / 100.0 * double(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] < rank) {
      seen += buckets_[i];
      continue;
    }
    // The rank-th sample is in bucket i: interpolate within its edges.
    double lo = (i == 0) ? std::min(min_, bounds_.front()) : bounds_[i - 1];
    double hi = (i < bounds_.size()) ? bounds_[i] : max_;
    double fraction = double(rank - seen) / double(buckets_[i]);
    double estimate = lo + fraction * (hi - lo);
    return std::max(min_, std::min(max_, estimate));
  }
  return max_;  // Unreachable when counts are consistent.
}

void Histogram::Reset() {
  buckets_.assign(bounds_.size() + 1, 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Counter* MetricsRegistry::labeled_counter(const std::string& family,
                                          const std::string& label,
                                          size_t max_labels) {
  std::string name = family + "." + label;
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  size_t& created = family_sizes_[family];
  if (created >= max_labels) return counter(family + ".overflow");
  ++created;
  return counter(name);
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::ResetPrefix(const std::string& prefix) {
  auto matches = [&prefix](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  for (auto& [name, c] : counters_) {
    if (matches(name)) c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    if (matches(name)) g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    if (matches(name)) h->Reset();
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    AppendJsonNumber(&out, double(c->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    AppendJsonNumber(&out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":{\"count\":";
    AppendJsonNumber(&out, double(h->count()));
    out += ",\"sum\":";
    AppendJsonNumber(&out, h->sum());
    out += ",\"min\":";
    AppendJsonNumber(&out, h->min());
    out += ",\"max\":";
    AppendJsonNumber(&out, h->max());
    out += ",\"p50\":";
    AppendJsonNumber(&out, h->Percentile(50));
    out += ",\"p95\":";
    AppendJsonNumber(&out, h->Percentile(95));
    out += ",\"p99\":";
    AppendJsonNumber(&out, h->Percentile(99));
    out += ",\"buckets\":[";
    const auto& bounds = h->bounds();
    const auto& buckets = h->bucket_counts();
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i) out += ',';
      out += "{\"le\":";
      if (i < bounds.size()) {
        AppendJsonNumber(&out, bounds[i]);
      } else {
        out += "\"inf\"";
      }
      out += ",\"count\":";
      AppendJsonNumber(&out, double(buckets[i]));
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace dcp::obs
