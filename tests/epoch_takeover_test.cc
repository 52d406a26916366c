// Epoch-check duty under the EpochMux, in both deployment shapes: the
// rank-0 node of a lineage is its only checker while it answers, and the
// next rank takes over once epoch polls stop reaching it (Section 4.3:
// "a new election would be started by any node noticing that epoch
// checking has not run for a while").

#include <gtest/gtest.h>

#include <string>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

/// A 9-node grid holding one object, daemons checking every 300; sharded
/// mode places the object on all nine nodes.
ClusterOptions Options(bool sharded) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 7;
  opts.initial_value = {1};
  opts.sharded = sharded;
  opts.replication_factor = 9;
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  return opts;
}

/// The node at rank 0 of object 0's duty ranking.
NodeId RankZero(const Cluster& cluster) {
  return cluster.table() ? cluster.table()->placement(0).ranking[0]
                         : cluster.num_nodes() - 1;
}

uint64_t ChecksRun(Cluster& cluster, NodeId n) {
  return cluster.metrics().CounterValue("shard.mux." + std::to_string(n) +
                                        ".checks_run");
}

class EpochTakeover : public ::testing::TestWithParam<bool> {};

TEST_P(EpochTakeover, PartitionedDutyHolderIsReplaced) {
  Cluster cluster(Options(GetParam()));
  cluster.RunFor(500);
  const NodeId cut = RankZero(cluster);
  NodeSet rest = cluster.all_nodes();
  rest.Erase(cut);
  cluster.Partition({NodeSet{cut}, rest});
  cluster.RunFor(6000);

  for (NodeId n : rest) {
    const storage::ReplicaStore& s = cluster.node(n).store(0);
    EXPECT_GE(s.epoch_number(), 1u) << "node " << n;
    EXPECT_FALSE(s.epoch_list().Contains(cut)) << "node " << n;
  }
}

TEST_P(EpochTakeover, OnlyRankZeroChecksWithoutFailures) {
  Cluster cluster(Options(GetParam()));
  cluster.RunFor(5000);
  const NodeId duty = RankZero(cluster);
  EXPECT_GT(ChecksRun(cluster, duty), 0u);
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (n == duty) continue;
    EXPECT_EQ(ChecksRun(cluster, n), 0u) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BothShapes, EpochTakeover, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sharded" : "Group";
                         });

}  // namespace
}  // namespace dcp::protocol
