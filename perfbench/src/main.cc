// dcp_perfbench: one workload per process.
//
//   dcp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <path>]
//
// Runs a fixed number of rounds sized from --seconds (each: fresh
// deployment, preload, a fixed number of timed operations, drain, output
// check), then prints a report and, as its last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end set over all rounds.
// With --trace 1 untraced and traced rounds alternate; the metrics are
// the per-layer set from the traced rounds plus the tracing overhead.
// Exits 1 when any check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"

namespace dcp::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (key == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (IsSocketWorkload(a->workload) || IsSimWorkload(a->workload));
}

/// Per-layer metrics and their units. Every traced round reports each.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kLayer = {
      {"harness.retries_per_op", "1/op"},
      {"harness.stale_retries_per_write", "1/write"},
      {"protocol.rpcs_per_op", "1/op"},
      {"protocol.lock_conflict_ratio", "ratio"},
      {"protocol.heavy_ratio", "ratio"},
      {"protocol.twopc_abort_ratio", "ratio"},
      {"protocol.propagations_per_write", "1/write"},
      {"protocol.epoch_checks_per_kop", "1/kop"},
      {"protocol.epoch_changes", "count"},
      {"protocol.epoch_check_fail_ratio", "ratio"},
      {"protocol.lock_round_ms_p50", "ms"},
      {"protocol.prepare_round_ms_p50", "ms"},
      {"protocol.commit_round_ms_p50", "ms"},
      {"protocol.fetch_round_ms_p50", "ms"},
      {"net.msgs_per_op", "1/op"},
      {"net.rpc_timeouts_per_kop", "1/kop"},
      {"net.rpc_call_failed_per_kop", "1/kop"},
      {"net.rpc_rtt_ms_p50", "ms"},
      {"net.rpc_rtt_ms_p99", "ms"},
      {"runtime.frames_per_op", "1/op"},
      {"runtime.frames_per_writev", "ratio"},
      {"runtime.mailbox_wait_ms_p50", "ms"},
      {"runtime.mailbox_wait_ms_p99", "ms"},
      {"runtime.pool_hit_ratio", "ratio"},
      {"runtime.cpu_ms_per_op", "ms"},
      {"runtime.wire_bytes_per_op", "B/op"},
      {"runtime.encode_us_per_msg", "us"},
      {"runtime.decode_us_per_msg", "us"},
      {"storage.log_entries_per_replica", "count"},
      {"storage.stale_replicas_end", "count"},
      {"storage.orphaned_stale_replicas", "count"},
      {"store.wal_records_per_op", "1/op"},
      {"store.wal_bytes_per_op", "B/op"},
      {"store.syncs_per_op", "1/op"},
      {"store.batch_records_p50", "count"},
      {"store.checkpoint_bytes_per_op", "B/op"},
      {"store.recovered_records_per_recovery", "count"},
      {"sim.events_per_op", "1/op"},
      {"trace.overhead_ops_pct", "%"},
  };
  return kLayer;
}

/// Host seconds one round takes, measured on a 4-vCPU Xeon (Sapphire
/// Rapids) KVM guest; --seconds / this = rounds per run.
double NominalRoundSeconds(const std::string& workload) {
  if (workload == "sock_partial_hot") return 1.8;
  if (workload == "sock_bulk_read") return 1.7;
  return 3.4;  // sim_churn_durable
}

/// A run stops starting rounds once it has taken this many times its
/// --seconds, so a slow host or a much slower build still ends in time
/// (with fewer rounds).
constexpr double kMaxRunOverrun = 1.3;

/// Host seconds the calibration's reference work takes on the reference
/// host (the 4-vCPU Xeon KVM guest above, in a quiet phase). Host times
/// are reported as if measured there: a round's times are divided by the
/// reference work's time around it over this.
constexpr double kReferenceCalibrationSeconds = 0.11;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void WriteSpans(const std::string& path, const std::vector<obs::TraceEvent>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::TraceEvent& e = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << e.name << "\",\"cat\":\""
        << e.cat << "\",\"ph\":\"" << e.phase << "\",\"ts\":" << Num(e.ts)
        << ",\"pid\":" << e.pid << ",\"tid\":0,\"id\":" << e.id << "}";
  }
  out << "\n]}\n";
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dcp_perfbench --workload "
                 "<sock_partial_hot|sock_bulk_read|sim_churn_durable> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n");
    return 2;
  }
  const bool sim = IsSimWorkload(args.workload);
  const uint32_t cpus = AvailableCpus();

  // A run is a fixed number of rounds, sized from --seconds, not a fixed
  // duration: replicas never truncate their update logs, so a run that
  // did more writes when the code got faster would read as a memory
  // regression. Each round draws its inputs from its own sub-seed of
  // --seed; a traced run pairs every untraced round with a traced round
  // on the same sub-seed, so the tracing overhead compares equal work.
  // Round -1 warms the allocator and caches: it is checked like every
  // other round but not reported, so a cold first set-up does not count.
  const int rounds = std::max(
      2, static_cast<int>(std::lround(args.seconds /
                                      NominalRoundSeconds(args.workload))) -
             1);
  std::vector<RoundResult> plain, traced;
  std::vector<std::string> errors;
  const Clock::time_point t0 = Clock::now();
  // The reference work runs before every round and after the last; a
  // round's host factor is the mean of the two runs around it. The first
  // call only warms the caches and the allocator.
  CalibrationSeconds();
  double calibration_before = CalibrationSeconds();
  for (int round = -1; round < rounds; ++round) {
    const bool warmup = round < 0;
    const bool trace_round = args.trace && round % 2 == 1;
    const uint64_t sub_seed = Mix(
        args.seed * 1000003 +
        static_cast<uint64_t>(warmup ? rounds
                                     : (args.trace ? round / 2 : round)));
    RoundResult r = sim ? RunSimRound(sub_seed, trace_round)
                        : RunSocketRound(args.workload, sub_seed, trace_round);
    const double calibration_after = CalibrationSeconds();
    r.host_factor = (calibration_before + calibration_after) / 2 /
                    kReferenceCalibrationSeconds;
    calibration_before = calibration_after;
    if (r.max_threads > cpus) {
      r.errors.push_back("thread budget exceeded: " +
                         std::to_string(r.max_threads) + " threads on " +
                         std::to_string(cpus) + " CPUs");
    }
    std::fprintf(stderr,
                 "round %d%s: setup %.4f s, timed %.4f s (cpu %.4f s), "
                 "host factor %.3f, %llu/%llu ops committed, %llu orphaned "
                 "replicas, %zu errors\n",
                 round, trace_round ? " (traced)" : "", r.setup_s, r.timed_s,
                 r.cpu_s, r.host_factor,
                 static_cast<unsigned long long>(r.committed()),
                 static_cast<unsigned long long>(r.attempted()),
                 static_cast<unsigned long long>(r.orphaned_replicas),
                 r.errors.size());
    for (const std::string& e : r.errors) {
      errors.push_back("round " + std::to_string(round) + ": " + e);
    }
    if (!warmup) (trace_round ? traced : plain).push_back(std::move(r));
    if (!errors.empty()) break;
    if (round + 1 < rounds &&
        SecondsSince(t0) > kMaxRunOverrun * args.seconds &&
        (!args.trace || !traced.empty())) {
      std::fprintf(stderr, "stopping after %d of %d rounds: time limit\n",
                   round + 1, rounds);
      break;
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted();
      failed += r.failed;
    }
  }
  // Every figure is taken over the whole run (sums, pooled samples), not
  // as a median over rounds: the host's speed drifts in phases of tens of
  // seconds, and a per-round median flips with whichever phase holds the
  // majority of rounds, where a whole-run figure moves in proportion.
  // Host times are divided by their round's host factor (see calibrate.cc)
  // unless `raw`.
  auto ops_per_s = [](const std::vector<RoundResult>& rs, bool raw) {
    double ops = 0, seconds = 0;
    for (const RoundResult& r : rs) {
      ops += static_cast<double>(r.committed());
      seconds += r.timed_s / (raw ? 1 : r.host_factor);
    }
    return seconds > 0 ? ops / seconds : 0;
  };

  std::vector<Metric> metrics;
  std::printf("workload %s seed %llu: %zu untraced + %zu traced rounds in "
              "%.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size(), SecondsSince(t0));
  if (!args.trace && !plain.empty()) {
    const char* lat_unit = sim ? "simulated ms" : "wall ms";
    uint64_t wa = 0, wc = 0, ra = 0, rc = 0;
    std::vector<double> setup_s, factors;
    for (const RoundResult& r : plain) {
      wa += r.writes_attempted;
      wc += r.writes_committed;
      ra += r.reads_attempted;
      rc += r.reads_committed;
      setup_s.push_back(r.setup_s / r.host_factor);
      factors.push_back(r.host_factor);
    }
    std::printf("  host factor    median %.4f over %zu rounds; unscaled "
                "ops_per_s %.2f\n",
                Median(factors), factors.size(), ops_per_s(plain, true));
    // Set-up is short enough that one preempted round is an outlier.
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"ops_per_s", ops_per_s(plain, false), "1/s"});
    struct Lat {
      const char* name;
      bool write;
      double p;
    };
    for (const Lat& l : {Lat{"write_p50_ms", true, 50},
                         Lat{"write_p99_ms", true, 99},
                         Lat{"read_p50_ms", false, 50},
                         Lat{"read_p99_ms", false, 99}}) {
      std::vector<double> pooled;
      for (const RoundResult& r : plain) {
        // Simulated latencies do not depend on the host.
        const double scale = sim ? 1 : 1 / r.host_factor;
        for (double ms : l.write ? r.write_ms : r.read_ms) {
          pooled.push_back(ms * scale);
        }
      }
      const size_t samples = pooled.size();
      metrics.push_back({l.name, Percentile(&pooled, l.p), "ms"});
      std::printf("  %-14s %s, over %zu samples (%zu beyond p%.0f)\n",
                  l.name, lat_unit, samples,
                  static_cast<size_t>(static_cast<double>(samples) *
                                      (100 - l.p) / 100),
                  l.p);
    }
    metrics.push_back({"write_avail",
                       wa ? static_cast<double>(wc) / static_cast<double>(wa)
                          : 0,
                       "ratio"});
    metrics.push_back({"read_avail",
                       ra ? static_cast<double>(rc) / static_cast<double>(ra)
                          : 0,
                       "ratio"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else if (args.trace && !traced.empty()) {
    for (const auto& [name, unit] : LayerMetrics()) {
      if (std::string(name) == "trace.overhead_ops_pct") {
        const double base = ops_per_s(plain, false);
        const double with = ops_per_s(traced, false);
        metrics.push_back(
            {name, base > 0 ? (base - with) / base * 100 : 0, unit});
        continue;
      }
      std::vector<double> v;
      for (const RoundResult& r : traced) {
        auto it = r.layer.find(name);
        if (it == r.layer.end()) {
          errors.push_back(std::string("per-layer metric missing: ") + name);
          break;
        }
        v.push_back(it->second);
      }
      metrics.push_back({name, Median(v), unit});
    }
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, traced.back().spans);
  }

  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty() && !metrics.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dcp::perfbench

int main(int argc, char** argv) { return dcp::perfbench::Run(argc, argv); }
