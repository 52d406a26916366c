// Client-visible outcome rates of a harness::WorkloadDriver run, read from
// the "workload.<kind>.*" metrics it keeps in the cluster's registry
// (<kind> is "write" or "read").

#ifndef DCP_BENCH_WORKLOAD_RATES_H_
#define DCP_BENCH_WORKLOAD_RATES_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace dcp::bench {

/// Committed share of the driver's `kind` ops; 0 when none was issued.
inline double SuccessRate(const obs::MetricsRegistry& m,
                          const std::string& kind) {
  const uint64_t attempted = m.CounterValue("workload." + kind + ".attempted");
  if (attempted == 0) return 0;
  return double(m.CounterValue("workload." + kind + ".committed")) /
         double(attempted);
}

/// Mean simulated latency of the driver's committed `kind` ops.
inline double MeanLatency(const obs::MetricsRegistry& m,
                          const std::string& kind) {
  return m.histograms().at("workload." + kind + ".latency")->mean();
}

}  // namespace dcp::bench

#endif  // DCP_BENCH_WORKLOAD_RATES_H_
