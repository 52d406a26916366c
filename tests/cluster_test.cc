// Cluster facade + invariant-checker tests — including NEGATIVE tests
// that prove the checkers actually catch violations (a checker that
// cannot fail is not a checker).

#include <gtest/gtest.h>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 77;
  opts.initial_value = {1, 2, 3};
  return opts;
}

TEST(Cluster, MakeCoterieRuleCoversEveryKind) {
  for (CoterieKind kind :
       {CoterieKind::kGrid, CoterieKind::kGridUnoptimized,
        CoterieKind::kGridColumnSafe, CoterieKind::kMajority,
        CoterieKind::kTree, CoterieKind::kHierarchical}) {
    auto rule = MakeCoterieRule(kind);
    ASSERT_NE(rule, nullptr);
    EXPECT_FALSE(rule->Name().empty());
  }
}

TEST(Cluster, UpNodesTracksFaults) {
  Cluster cluster(Options());
  EXPECT_EQ(cluster.UpNodes(), NodeSet::Universe(9));
  cluster.Crash(3);
  cluster.Crash(7);
  NodeSet expect = NodeSet::Universe(9);
  expect.Erase(3);
  expect.Erase(7);
  EXPECT_EQ(cluster.UpNodes(), expect);
  cluster.Recover(3);
  expect.Insert(3);
  EXPECT_EQ(cluster.UpNodes(), expect);
}

TEST(Cluster, RunForAdvancesClockEvenWhenIdle) {
  Cluster cluster(Options());
  double before = cluster.simulator().Now();
  cluster.RunFor(123.5);
  EXPECT_DOUBLE_EQ(cluster.simulator().Now(), before + 123.5);
}

TEST(Cluster, EpochInvariantCheckerCatchesListDisagreement) {
  Cluster cluster(Options());
  // Corrupt node 4: same epoch number as everyone (0) but a different
  // list — the checker must flag it.
  cluster.node(4).store().SetEpoch(0, NodeSet({0, 1, 2, 3, 4}));
  Status s = cluster.CheckEpochInvariants();
  EXPECT_FALSE(s.ok());
}

TEST(Cluster, EpochInvariantCheckerCatchesNonMembership) {
  Cluster cluster(Options());
  // Node 4 installs an epoch list that does not include itself.
  NodeSet without4 = NodeSet::Universe(9);
  without4.Erase(4);
  cluster.node(4).store().SetEpoch(5, without4);
  Status s = cluster.CheckEpochInvariants();
  EXPECT_FALSE(s.ok());
}

TEST(Cluster, EpochInvariantCheckerCatchesLemmaOneViolation) {
  Cluster cluster(Options());
  // Hand-craft a two-epoch split where the OLD epoch still holds a write
  // quorum among its believers: nodes 0..5 keep epoch 0 (all 9 nodes —
  // and {0,1,2,3,4,5} contains the 3x3 write quorum {0,3,6}... no: 6 is
  // missing; {0,1,2,3,4,5} covers columns {0,3},{1,4},{2,5} and column
  // 0 fully? Column 0 is {0,3,6} — 6 missing. Use believers 0..6 so
  // column {0,3,6} is complete -> a quorum of epoch 0 survives.
  NodeSet new_epoch({7, 8});
  cluster.node(7).store().SetEpoch(1, new_epoch);
  cluster.node(8).store().SetEpoch(1, new_epoch);
  // Believers of epoch 0: nodes 0..6, which include a write quorum of
  // the 3x3 grid over all 9 nodes -> Lemma 1 violated.
  Status s = cluster.CheckEpochInvariants();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("Lemma 1"), std::string::npos);
}

TEST(Cluster, ReplicaConsistencyCheckerCatchesDivergence) {
  Cluster cluster(Options());
  ASSERT_TRUE(cluster.WriteSyncRetry(0, Update::Partial(0, {9})).ok());
  cluster.RunFor(2000);
  // Corrupt one replica's bytes at the same version.
  Version maxv = 0;
  NodeId holder = kInvalidNode;
  for (NodeId i = 0; i < 9; ++i) {
    if (!cluster.node(i).store().stale() &&
        cluster.node(i).store().version() > maxv) {
      maxv = cluster.node(i).store().version();
      holder = i;
    }
  }
  ASSERT_NE(holder, kInvalidNode);
  // Find a second holder of maxv and flip a byte via a raw Apply +
  // version rollback trick: instead, install a divergent snapshot at the
  // same version on another max-version replica.
  for (NodeId i = 0; i < 9; ++i) {
    if (i != holder && !cluster.node(i).store().stale() &&
        cluster.node(i).store().version() == maxv) {
      cluster.node(i).store().object().InstallSnapshot(
          maxv, storage::Update::Total({0xBA, 0xD1}));
      break;
    }
  }
  Status s = cluster.CheckReplicaConsistency();
  EXPECT_FALSE(s.ok());
}

TEST(Cluster, ReplicaConsistencyCheckerCatchesBogusStaleMark) {
  Cluster cluster(Options());
  // Stale with desired version already reached = invariant violation.
  cluster.node(2).store().object().Apply(storage::Update::Partial(0, {1}));
  cluster.node(2).store().MarkStale(1);
  Status s = cluster.CheckReplicaConsistency();
  EXPECT_FALSE(s.ok());
}

TEST(Cluster, InvariantCheckRefusesMidTransaction) {
  Cluster cluster(Options());
  // Stage a transaction at node 3 and verify the checker declines.
  storage::LockOwner tx{0, 1};
  auto lock = std::make_shared<LockRequest>();
  lock->owner = tx;
  lock->mode = LockMode::kExclusive;
  ASSERT_TRUE(cluster.node(3).HandleRequest(0, msg::kLock, lock).ok());
  auto prepare = std::make_shared<PrepareRequest>();
  prepare->owner = tx;
  ObjectAction act;
  act.mark_stale = true;
  act.desired_version = 9;
  prepare->action.objects.push_back(act);
  prepare->participants = NodeSet({3});
  ASSERT_TRUE(cluster.node(3).HandleRequest(0, msg::kPrepare, prepare).ok());

  EXPECT_FALSE(cluster.Quiescent());
  Status s = cluster.CheckEpochInvariants();
  EXPECT_TRUE(s.IsAborted());
}

TEST(Cluster, WriteToUnknownObjectFails) {
  Cluster cluster(Options());  // Single object (id 0).
  auto w = cluster.WriteSync(0, /*object=*/5, Update::Partial(0, {1}));
  EXPECT_FALSE(w.ok());
}

/// Writes to `object` the cluster's history saw acknowledged.
size_t AckedWrites(const Cluster& cluster, storage::ObjectId object) {
  size_t n = 0;
  for (const analysis::ClientOp& op : cluster.history().ops()) {
    n += op.object == object && op.kind == analysis::ClientOp::Kind::kWrite &&
         op.outcome == analysis::ClientOp::Outcome::kOk;
  }
  return n;
}

TEST(Cluster, SeparateHistoriesPerObject) {
  ClusterOptions opts = Options();
  opts.num_objects = 2;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.WriteSyncRetry(0, 0, Update::Partial(0, {1}), 5).ok());
  ASSERT_TRUE(cluster.WriteSyncRetry(1, 1, Update::Partial(0, {2}), 5).ok());
  EXPECT_EQ(AckedWrites(cluster, 0), 1u);
  EXPECT_EQ(AckedWrites(cluster, 1), 1u);
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

}  // namespace
}  // namespace dcp::protocol
