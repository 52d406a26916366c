// Measurement helpers: percentiles, hashing, process resource readings.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace dcp::perfbench {

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = p / 100.0 * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

uint64_t HashBytes(const uint8_t* data, size_t len) {
  uint64_t h = 0x84222325cbf29ce4ULL ^ (len * 0x9E3779B97F4A7C15ULL);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < len; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ULL;
  }
  return Mix(h);
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

/// The numeric value of one "Key:  value" line of /proc/self/status.
double StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::stod(line.substr(key_len + 1));
    }
  }
  return 0;
}

}  // namespace

uint32_t ThreadCount() {
  return static_cast<uint32_t>(StatusField("Threads"));
}

double PeakRssMb() { return StatusField("VmHWM") / 1024.0; }

void AddCounters(const obs::MetricsRegistry& registry, Counters* out) {
  for (const auto& [name, counter] : registry.counters()) {
    std::string key = name;
    if (key.rfind("node.", 0) == 0) {
      const size_t dot = key.find('.', 5);
      if (dot != std::string::npos) key = "node" + key.substr(dot);
    }
    (*out)[key] += static_cast<double>(counter->value());
  }
}

void AddCounterMetrics(const Counters& before, const Counters& after,
                       double n_ops, double n_writes, double cpu_s,
                       std::map<std::string, double>* layer) {
  auto delta = [&](const char* k) {
    auto a = after.find(k);
    auto b = before.find(k);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  std::map<std::string, double>& L = *layer;
  L["protocol.rpcs_per_op"] = delta("rpc.calls") / n_ops;
  L["protocol.lock_conflict_ratio"] =
      ratio(delta("node.lock_conflicts"),
            delta("node.lock_conflicts") + delta("node.locks_granted"));
  L["protocol.heavy_ratio"] =
      ratio(delta("op.write.heavy") + delta("op.read.heavy"),
            delta("op.write.started") + delta("op.read.started"));
  L["protocol.twopc_abort_ratio"] =
      ratio(delta("twopc.aborted"), delta("twopc.started"));
  L["protocol.propagations_per_write"] =
      delta("node.propagations_received") / n_writes;
  L["protocol.epoch_checks_per_kop"] =
      delta("epoch.checks_started") * 1000 / n_ops;
  L["protocol.epoch_check_fail_ratio"] =
      ratio(delta("epoch.checks_failed"), delta("epoch.checks_started"));
  L["net.rpc_timeouts_per_kop"] = delta("rpc.timeouts") * 1000 / n_ops;
  L["net.rpc_call_failed_per_kop"] = delta("rpc.call_failed") * 1000 / n_ops;
  L["runtime.cpu_ms_per_op"] = cpu_s * 1000 / n_ops;
}

void AddSpan(const char* name, uint32_t pid, uint64_t id, double begin_ms,
             double end_ms, std::vector<obs::TraceEvent>* spans) {
  obs::TraceEvent begin;
  begin.ts = begin_ms * 1000;  // Chrome traces count microseconds.
  begin.phase = 'b';
  begin.pid = pid;
  begin.id = id;
  begin.cat = "bench";
  begin.name = name;
  obs::TraceEvent end = begin;
  end.ts = end_ms * 1000;
  end.phase = 'e';
  spans->push_back(std::move(begin));
  spans->push_back(std::move(end));
}

uint32_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

}  // namespace dcp::perfbench
