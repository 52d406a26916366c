#include <gtest/gtest.h>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions DaemonOptions(uint32_t n = 9) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 13;
  opts.initial_value = {1};
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 200;
  return opts;
}

TEST(GroupEpochMux, HighestNodeLeadsByDefault) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(1000);
  // Node 8, rank 0 of the group ranking, holds duty.
  for (uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).self(), i);
  }
  // No epoch change needed in a healthy cluster.
  for (uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).store().epoch_number(), 0u);
  }
}

TEST(GroupEpochMux, DaemonDetectsFailureAndChangesEpoch) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  cluster.Crash(4);
  cluster.RunFor(1500);  // Next periodic check notices and re-forms.
  NodeSet expected = NodeSet::Universe(9);
  expected.Erase(4);
  for (NodeId i = 0; i < 9; ++i) {
    if (i == 4) continue;
    EXPECT_GE(cluster.node(i).store().epoch_number(), 1u) << "node " << i;
    EXPECT_EQ(cluster.node(i).store().epoch_list(), expected) << "node " << i;
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
}

TEST(GroupEpochMux, DutyHolderCrashHandsDutyToNextRank) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  cluster.Crash(8);  // The initial duty holder.
  // Once node 7 has answered no epoch poll for two intervals, it takes
  // over duty and runs the epoch check.
  cluster.RunFor(4000);
  NodeSet expected = NodeSet::Universe(9);
  expected.Erase(8);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_GE(cluster.node(i).store().epoch_number(), 1u) << "node " << i;
    EXPECT_EQ(cluster.node(i).store().epoch_list(), expected);
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
}

TEST(GroupEpochMux, RecoveredDutyHolderReclaimsDuty) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  cluster.Crash(8);
  cluster.RunFor(4000);  // Node 7 holds duty; epoch excludes 8.
  cluster.Recover(8);
  cluster.RunFor(4000);  // Node 8 checks again; epoch re-admits 8.
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).store().epoch_list(), NodeSet::Universe(9))
        << "node " << i;
  }
  // Node 8 was re-admitted and caught up by propagation if needed.
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

TEST(GroupEpochMux, AutonomousOperationUnderFailures) {
  // Writes keep succeeding while daemons autonomously track a churn of
  // failures and repairs.
  Cluster cluster(DaemonOptions());
  int committed = 0;
  for (int round = 0; round < 6; ++round) {
    NodeId victim = static_cast<NodeId>((round * 2) % 9);
    cluster.Crash(victim);
    cluster.RunFor(1500);  // Daemon reacts.
    for (int i = 0; i < 3; ++i) {
      NodeId coord = static_cast<NodeId>((victim + 1 + i) % 9);
      auto w = cluster.WriteSyncRetry(coord,
                                      Update::Partial(0, {uint8_t(round)}));
      if (w.ok()) ++committed;
    }
    cluster.Recover(victim);
    cluster.RunFor(1500);
  }
  EXPECT_EQ(committed, 18);
  cluster.RunFor(4000);
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
  // The daemons did real work.
  uint64_t checks = 0;
  for (uint32_t i = 0; i < 9; ++i) {
    checks = std::max<uint64_t>(checks,
                                cluster.node(i).store().epoch_number());
  }
  EXPECT_GE(checks, 10u);
}

TEST(GroupEpochMux, NoInterferenceWithoutFailures) {
  // Section 4.3: "in the absence of failures epoch checking does not
  // interfere with reads and writes" — polls take no locks, and no epoch
  // change means no 2PC.
  Cluster cluster(DaemonOptions());
  cluster.RunFor(5000);
  const obs::MetricsRegistry& m = cluster.metrics();
  EXPECT_GT(m.CounterValue("net.type.epoch-poll.sent"), 100u);
  EXPECT_EQ(m.CounterValue("net.type.2pc-prepare.sent"), 0u);
  for (uint32_t i = 0; i < 9; ++i) {
    EXPECT_FALSE(cluster.node(i).store().IsLocked());
  }
}

}  // namespace
}  // namespace dcp::protocol
