#include "baseline/accessible_copies.h"

#include <gtest/gtest.h>

#include "protocol/cluster.h"

namespace dcp::baseline {
namespace {

using protocol::Cluster;
using protocol::ClusterOptions;
using protocol::CoterieKind;
using protocol::ReadOutcome;
using protocol::Update;
using protocol::WriteOutcome;

ClusterOptions Options(uint32_t n = 9) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kMajority;  // Rule unused by this protocol.
  opts.seed = 101;
  opts.initial_value = {'a', 'c'};
  return opts;
}

Result<WriteOutcome> WriteSync(Cluster& cluster, NodeId coord,
                               Update update) {
  bool fired = false;
  Result<WriteOutcome> result = Status::Internal("unset");
  StartAccessibleWrite(&cluster.node(coord), std::move(update),
                       [&](Result<WriteOutcome> r) {
                         fired = true;
                         result = std::move(r);
                       });
  while (!fired && cluster.simulator().Step()) {
  }
  return result;
}

Result<ReadOutcome> ReadSync(Cluster& cluster, NodeId coord) {
  bool fired = false;
  Result<ReadOutcome> result = Status::Internal("unset");
  StartAccessibleRead(&cluster.node(coord), [&](Result<ReadOutcome> r) {
    fired = true;
    result = std::move(r);
  });
  while (!fired && cluster.simulator().Step()) {
  }
  return result;
}

Status ViewChangeSync(Cluster& cluster, NodeId coord) {
  bool fired = false;
  Status result;
  StartViewChange(&cluster.node(coord), [&](Status s) {
    fired = true;
    result = std::move(s);
  });
  while (!fired && cluster.simulator().Step()) {
  }
  return result;
}

TEST(AccessibleCopies, WriteAllReadOne) {
  Cluster cluster(Options());
  auto w = WriteSync(cluster, 0, Update::Partial(0, {'X'}));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->version, 1u);
  // Write-all: EVERY replica carries the new value.
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).store().version(), 1u) << "node " << int(i);
  }
  // Read-one: exactly one lock + one fetch on the wire.
  cluster.metrics().ResetPrefix("net.");
  auto r = ReadSync(cluster, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 'X');
  EXPECT_EQ(cluster.metrics().CounterValue("net.type.fetch.sent"), 1u);
}

TEST(AccessibleCopies, WriteFailsWhenViewMemberDown) {
  Cluster cluster(Options());
  cluster.Crash(7);
  auto w = WriteSync(cluster, 0, Update::Partial(0, {'Y'}));
  EXPECT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsUnavailable()) << w.status().ToString();
}

TEST(AccessibleCopies, ViewChangeRestoresWritability) {
  Cluster cluster(Options());
  ASSERT_TRUE(WriteSync(cluster, 0, Update::Partial(0, {'1'})).ok());
  cluster.Crash(7);
  ASSERT_TRUE(ViewChangeSync(cluster, 0).ok());
  NodeSet expected = NodeSet::Universe(9);
  expected.Erase(7);
  EXPECT_EQ(cluster.node(0).epoch().list, expected);
  auto w = WriteSync(cluster, 0, Update::Partial(1, {'2'}));
  EXPECT_TRUE(w.ok()) << w.status().ToString();
}

TEST(AccessibleCopies, ThresholdBlocksMinorityViews) {
  // The Section 2 limitation: below floor(N/2)+1 accessible replicas, no
  // view can form — even though the *epoch* protocol would happily keep
  // going with 3 nodes.
  Cluster cluster(Options());
  for (NodeId v = 4; v < 9; ++v) cluster.Crash(v);  // 4 of 9 left.
  Status s = ViewChangeSync(cluster, 0);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  auto w = WriteSync(cluster, 0, Update::Partial(0, {'z'}));
  EXPECT_FALSE(w.ok());

  // Contrast: the paper's epoch protocol tolerates the same sequence if
  // applied gradually (tested in protocol_failure_test); here even full
  // recovery of one node is not enough until the threshold is met.
  cluster.Recover(4);
  EXPECT_TRUE(ViewChangeSync(cluster, 0).ok());
  EXPECT_TRUE(WriteSync(cluster, 0, Update::Partial(0, {'z'})).ok());
}

TEST(AccessibleCopies, ViewChangeReconcilesSynchronously) {
  Cluster cluster(Options());
  ASSERT_TRUE(WriteSync(cluster, 0, Update::Partial(0, {'1'})).ok());
  cluster.Crash(8);
  ASSERT_TRUE(ViewChangeSync(cluster, 0).ok());
  ASSERT_TRUE(WriteSync(cluster, 1, Update::Partial(1, {'2'})).ok());
  ASSERT_TRUE(WriteSync(cluster, 2, Update::Partial(0, {'3'})).ok());

  // Node 8 returns: the view change must bring it to v3 *synchronously*
  // (before the change completes), unlike the epoch protocol's
  // asynchronous stale-marking.
  cluster.Recover(8);
  ASSERT_TRUE(ViewChangeSync(cluster, 0).ok());
  EXPECT_EQ(cluster.node(8).store().version(), 3u);
  EXPECT_EQ(cluster.node(8).store().object().data(),
            cluster.node(0).store().object().data());
  // And it serves read-one immediately.
  auto r = ReadSync(cluster, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, 3u);
}

TEST(AccessibleCopies, EvictedCoordinatorRefusesOperations) {
  Cluster cluster(Options());
  cluster.Crash(8);
  ASSERT_TRUE(ViewChangeSync(cluster, 0).ok());
  cluster.Recover(8);
  // Node 8 still believes the original view but is not in the current
  // one; as coordinator it is allowed to act only within ITS view, which
  // includes itself — but its first write touches a member with a newer
  // view id and aborts.
  auto w = WriteSync(cluster, 8, Update::Partial(0, {'!'}));
  EXPECT_FALSE(w.ok());
}

TEST(AccessibleCopies, SequentialShrinkStopsAtThreshold) {
  Cluster cluster(Options());
  ASSERT_TRUE(WriteSync(cluster, 0, Update::Partial(0, {'a'})).ok());
  // Gradually crash nodes, view-changing in between (the protocol's best
  // case): it survives down to 5 of 9 — the threshold — and no further.
  for (NodeId victim = 8; victim >= 5; --victim) {
    cluster.Crash(victim);
    ASSERT_TRUE(ViewChangeSync(cluster, 0).ok()) << "victim " << int(victim);
    ASSERT_TRUE(
        WriteSync(cluster, 0, Update::Partial(0, {uint8_t(victim)})).ok());
  }
  cluster.Crash(4);  // 4 left: below threshold even after gradual decay.
  EXPECT_FALSE(ViewChangeSync(cluster, 0).ok());
  EXPECT_FALSE(WriteSync(cluster, 0, Update::Partial(0, {'x'})).ok());
}

}  // namespace
}  // namespace dcp::baseline
