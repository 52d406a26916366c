// Ext-I: lock-conflict policy ablation. The paper leaves deadlock
// handling to [2]; this bench compares the two deadlock-free policies we
// implement — refuse-and-retry vs wound-wait — under increasing write
// contention (open-loop Poisson writers, one hot object, no failures).
//
// Expected shape: at low contention the policies tie; as contention
// grows, wound-wait sustains a higher single-attempt success rate
// (older operations push through instead of mutually aborting) at the
// cost of wounding younger operations mid-flight.

#include <cstdio>
#include <string>

#include "harness/workload.h"
#include "protocol/cluster.h"
#include "workload_rates.h"

namespace {

using namespace dcp;
using namespace dcp::protocol;

struct Row {
  double success;
  double latency;
  uint64_t steals;
  uint64_t conflicts;
};

Row Run(LockPolicy policy, double arrival_rate) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 3;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.node_options.lock_policy = policy;
  Cluster cluster(opts);

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = arrival_rate;
  wopts.write_fraction = 1.0;  // Pure writes on one object: max conflict.
  wopts.seed = 8;
  harness::WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(50000);
  workload.Stop();
  cluster.RunFor(3000);

  Row row;
  row.success = bench::SuccessRate(cluster.metrics(), "write");
  row.latency = bench::MeanLatency(cluster.metrics(), "write");
  row.steals = 0;
  row.conflicts = 0;
  for (uint32_t i = 0; i < 9; ++i) {
    const std::string p = "node." + std::to_string(i) + ".";
    row.steals += cluster.metrics().counter(p + "lock_steals")->value();
    row.conflicts += cluster.metrics().counter(p + "lock_conflicts")->value();
  }
  Status history = cluster.CheckHistory();
  if (!history.ok()) {
    std::printf("HISTORY VIOLATION: %s\n", history.ToString().c_str());
  }
  return row;
}

}  // namespace

int main() {
  std::printf("Lock-conflict policy ablation: pure-write contention on one "
              "object\n(9 nodes, grid, open-loop writers, no retries, "
              "horizon 50000)\n\n");
  std::printf("%-14s %-13s %-11s %-10s %-9s %-10s\n", "arrival rate",
              "policy", "success", "latency", "wounds", "conflicts");
  for (double rate : {0.005, 0.02, 0.08, 0.2}) {
    Row refuse = Run(LockPolicy::kRefuse, rate);
    Row wound = Run(LockPolicy::kWoundWait, rate);
    std::printf("%-14.3f %-13s %-11.4f %-10.1f %-9llu %-10llu\n", rate,
                "refuse", refuse.success, refuse.latency,
                static_cast<unsigned long long>(refuse.steals),
                static_cast<unsigned long long>(refuse.conflicts));
    std::printf("%-14.3f %-13s %-11.4f %-10.1f %-9llu %-10llu\n", rate,
                "wound-wait", wound.success, wound.latency,
                static_cast<unsigned long long>(wound.steals),
                static_cast<unsigned long long>(wound.conflicts));
  }
  return 0;
}
