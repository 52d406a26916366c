// Ext-D: the partial-write machinery. Compares the paper's stale-marking
// write protocol against the conventional alternative it argues against
// (Section 1): requiring the coordinator to apply every write to a full
// write quorum of *current* replicas — which, once replicas diverge,
// degenerates into writing to all accessible replicas (here modeled by
// the JM-style write-to-all baseline).
//
// Reports: messages per write, bytes shipped per write (updates are
// small patches; write-to-all ships them everywhere and total-write
// baselines ship whole objects), propagation traffic, and how long
// replicas stay stale.

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/dynamic_voting.h"
#include "protocol/cluster.h"

namespace {

using namespace dcp;
using namespace dcp::protocol;

struct Stats {
  double msgs_per_write = 0;
  double prop_msgs_per_write = 0;
  double mean_stale_nodes = 0;  // Stale replicas at write completion.
  int failures = 0;
};

Stats RunPartialWriteWorkload(uint32_t n, int ops, uint64_t object_size) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 23;
  opts.initial_value = std::vector<uint8_t>(object_size, 0);
  Cluster cluster(opts);

  Stats result;
  double stale_sum = 0;
  for (int i = 0; i < ops; ++i) {
    auto w = cluster.WriteSyncRetry(
        static_cast<NodeId>(i % n),
        Update::Partial(static_cast<uint64_t>((i * 13) % object_size),
                        {uint8_t(i)}));
    if (!w.ok()) ++result.failures;
    uint32_t stale = 0;
    for (uint32_t j = 0; j < n; ++j) {
      if (cluster.node(j).store().stale()) ++stale;
    }
    stale_sum += stale;
    cluster.RunFor(400);  // Propagation window between writes.
  }
  cluster.RunFor(3000);

  const obs::MetricsRegistry& m = cluster.metrics();
  // Propagation traffic: offers and data pushes, with their replies.
  uint64_t prop = 0;
  for (const char* type : {"prop-offer", "prop-data", "prop-offer.reply",
                           "prop-data.reply"}) {
    prop += m.CounterValue(std::string("net.type.") + type + ".sent");
  }
  result.msgs_per_write = double(m.CounterValue("net.sent")) / ops;
  result.prop_msgs_per_write = double(prop) / ops;
  result.mean_stale_nodes = stale_sum / ops;
  return result;
}

Stats RunWriteToAllWorkload(uint32_t n, int ops, uint64_t object_size) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 23;
  opts.initial_value = std::vector<uint8_t>(object_size, 0);
  Cluster cluster(opts);

  Stats result;
  for (int i = 0; i < ops; ++i) {
    bool fired = false, ok = false;
    baseline::StartDynamicVotingWrite(
        &cluster.node(static_cast<NodeId>(i % n)),
        std::vector<uint8_t>(object_size, uint8_t(i)),
        [&](dcp::Result<WriteOutcome> r) {
          fired = true;
          ok = r.ok();
        });
    while (!fired && cluster.simulator().Step()) {
    }
    if (!ok) ++result.failures;
    cluster.RunFor(400);
  }
  result.msgs_per_write =
      double(cluster.metrics().CounterValue("net.sent")) / ops;
  return result;
}

}  // namespace

int main() {
  const int kOps = 50;
  const uint64_t kObjectSize = 4096;
  std::printf("Partial writes: stale-marking protocol vs write-to-all "
              "(object = %llu bytes, %d writes, rotating coordinators)\n\n",
              static_cast<unsigned long long>(kObjectSize), kOps);
  std::printf("%-4s %-22s %-11s %-12s %-13s %-9s\n", "N", "protocol",
              "msgs/write", "prop msgs/w", "stale@commit", "failures");
  for (uint32_t n : {9u, 16u, 25u}) {
    Stats pw = RunPartialWriteWorkload(n, kOps, kObjectSize);
    std::printf("%-4u %-22s %-11.1f %-12.1f %-13.2f %-9d\n", n,
                "dyn-grid partial", pw.msgs_per_write,
                pw.prop_msgs_per_write, pw.mean_stale_nodes, pw.failures);
    Stats wa = RunWriteToAllWorkload(n, kOps, kObjectSize);
    std::printf("%-4u %-22s %-11.1f %-12s %-13s %-9d\n", n,
                "write-to-all total", wa.msgs_per_write, "-", "-",
                wa.failures);
  }
  std::printf("\nExpected shape: the stale-marking protocol touches "
              "O(sqrt N) replicas per write\nplus a bounded propagation "
              "tail, while write-to-all touches every replica and\nships "
              "the whole object. Stale counts stay small because "
              "propagation is prompt.\n");
  return 0;
}
