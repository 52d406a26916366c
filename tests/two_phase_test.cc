#include "protocol/two_phase.h"

#include <gtest/gtest.h>

#include <string>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 11;
  opts.initial_value = {0};
  // Deterministic timing so crash points hit exact protocol phases:
  // prepare delivered t=1, prepare acks t=2 (= decision), commits t=3.
  opts.latency = net::LatencyModel{1.0, 0.0};
  return opts;
}

/// Takes `tx`'s exclusive lock on object 0 at each of `nodes`, as a
/// write's lock round does before its prepare: a prepare that is not an
/// epoch install is refused where its lock is not held.
void LockAt(Cluster& cluster, const LockOwner& tx, const NodeSet& nodes) {
  for (NodeId n : nodes) {
    auto req = std::make_shared<LockRequest>();
    req->owner = tx;
    req->mode = LockMode::kExclusive;
    ASSERT_TRUE(
        cluster.node(n).HandleRequest(tx.coordinator, msg::kLock, req).ok());
  }
}

StagedAction MarkStaleAction(Version dv) {
  ObjectAction obj;
  obj.mark_stale = true;
  obj.desired_version = dv;
  StagedAction act;
  act.objects.push_back(std::move(obj));
  return act;
}

TEST(TwoPhase, CommitAppliesEverywhere) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(7);
  LockAt(cluster, tx, NodeSet({1, 2, 3}));

  Status result = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status s) { result = s; });
  cluster.simulator().Run();

  EXPECT_TRUE(result.ok()) << result.ToString();
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(cluster.node(n).store().stale());
    EXPECT_EQ(cluster.node(n).store().desired_version(), 7u);
    EXPECT_FALSE(cluster.node(n).store().IsLocked());
    EXPECT_EQ(cluster.node(n).LookupOutcome(tx), TxOutcome::kCommitted);
  }
  // Every participant acknowledged the commit, so the coordinator forgot
  // it; the participants keep theirs until told.
  EXPECT_EQ(cluster.node(0).LookupOutcome(tx), TxOutcome::kUnknown);

  // The next transaction's phase 2 carries the forget notice.
  LockOwner next{0, cluster.node(0).NextOperationId()};
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(8);
  LockAt(cluster, next, NodeSet({1, 2, 3}));
  result = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), next, actions,
                      [&](Status s) { result = s; });
  cluster.simulator().Run();
  EXPECT_TRUE(result.ok()) << result.ToString();
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_EQ(cluster.node(n).LookupOutcome(tx), TxOutcome::kUnknown);
    EXPECT_EQ(cluster.node(n).LookupOutcome(next), TxOutcome::kCommitted);
    EXPECT_EQ(cluster.node(n).outcomes().size(), 1u);
  }
  EXPECT_TRUE(cluster.node(0).outcomes().empty());
}

TEST(TwoPhase, PrepareFailureAbortsEverywhere) {
  Cluster cluster(Options());
  cluster.Crash(3);  // One participant unreachable.
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(7);
  LockAt(cluster, tx, NodeSet({1, 2}));

  Status result;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status s) { result = s; });
  cluster.simulator().Run();

  EXPECT_TRUE(result.IsAborted()) << result.ToString();
  EXPECT_EQ(cluster.node(0).LookupOutcome(tx), TxOutcome::kAborted);
  for (NodeId n = 1; n <= 2; ++n) {
    EXPECT_FALSE(cluster.node(n).store().stale());
    EXPECT_FALSE(cluster.node(n).store().IsLocked());
    EXPECT_EQ(cluster.node(n).LookupOutcome(tx), TxOutcome::kAborted);
  }
}

TEST(TwoPhase, ConflictingPreparesAbort) {
  Cluster cluster(Options());
  // Node 2 is locked by a foreign operation that is staged (never
  // expires), so prepare must fail there.
  LockOwner blocker{4, 999};
  ASSERT_TRUE(cluster.node(2).store().Lock(blocker, true).ok());
  auto blocker_prepare = std::make_shared<PrepareRequest>();
  blocker_prepare->owner = blocker;
  blocker_prepare->action = MarkStaleAction(1);
  blocker_prepare->participants = NodeSet({2, 4});
  ASSERT_TRUE(
      cluster.node(2).HandleRequest(4, msg::kPrepare, blocker_prepare).ok());

  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 2; ++n) actions[n] = MarkStaleAction(7);
  LockAt(cluster, tx, NodeSet({1}));  // The blocker holds node 2.
  Status result;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status s) { result = s; });
  // Run bounded: the blocker's termination protocol polls forever.
  cluster.RunFor(2000);

  EXPECT_TRUE(result.IsAborted());
  EXPECT_FALSE(cluster.node(1).store().stale());
}

TEST(TwoPhase, ParticipantCrashAfterPrepareRecoversAndLearnsOutcome) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);
  LockAt(cluster, tx, NodeSet({1, 2, 3}));

  // Crash node 2 after it prepared and acked (t=2) but before the commit
  // arrives (t=3).
  cluster.simulator().Schedule(2.5, [&] { cluster.Crash(2); });
  Status result;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status s) { result = s; });
  cluster.RunFor(500);
  EXPECT_TRUE(result.ok()) << result.ToString();  // Commit was decided.
  EXPECT_FALSE(cluster.node(2).store().stale());  // Missed the commit.

  // On recovery, cooperative termination asks the coordinator and
  // applies the commit (the staged action is persistent).
  cluster.Recover(2);
  cluster.RunFor(500);
  EXPECT_TRUE(cluster.node(2).store().stale());
  EXPECT_EQ(cluster.node(2).store().desired_version(), 9u);
  EXPECT_TRUE(cluster.Quiescent());
}

TEST(TwoPhase, CoordinatorCrashBeforeDecisionPresumesAbort) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);
  LockAt(cluster, tx, NodeSet({1, 2, 3}));

  // Crash the coordinator while prepares are in flight (before acks
  // return at ~2 time units).
  cluster.simulator().Schedule(1.6, [&] { cluster.Crash(0); });
  bool fired = false;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status) { fired = true; });
  cluster.RunFor(100);
  EXPECT_FALSE(fired);  // The dead coordinator never resolves.
  // Participants are prepared and blocked.
  EXPECT_FALSE(cluster.Quiescent());

  // Recover the coordinator: it has no decision record and is not
  // deciding, so termination resolves to presumed abort.
  cluster.Recover(0);
  cluster.RunFor(1000);
  EXPECT_TRUE(cluster.Quiescent());
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_FALSE(cluster.node(n).store().stale());
    EXPECT_FALSE(cluster.node(n).store().IsLocked());
    const std::string p = "node." + std::to_string(n) + ".";
    EXPECT_GT(cluster.metrics().counter(p + "presumed_aborts")->value() +
                  cluster.metrics().counter(p + "aborts")->value(),
              0u);
  }
}

TEST(TwoPhase, CoordinatorCrashAfterDecisionCommitsViaTermination) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);
  LockAt(cluster, tx, NodeSet({1, 2, 3}));

  // Prepares land at t=1 and their acks decide at t=2. Cutting the
  // coordinator's outbound links in between loses its commits (sent at
  // t=2, due at t=3); it crashes at t=2.5, after logging the decision
  // and before any participant has it.
  cluster.simulator().Schedule(1.5, [&] {
    for (NodeId n = 1; n <= 3; ++n) cluster.CutLink(0, n);
  });
  cluster.simulator().Schedule(2.5, [&] { cluster.Crash(0); });
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions, [&](Status) {});
  cluster.RunFor(2.5);
  EXPECT_EQ(cluster.node(0).LookupOutcome(tx), TxOutcome::kCommitted);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_EQ(cluster.node(n).LookupOutcome(tx), TxOutcome::kUnknown)
        << "node " << n << " has the decision before the crash";
  }
  cluster.RunFor(200);
  EXPECT_FALSE(cluster.Quiescent());  // Blocked on the dead coordinator.

  for (NodeId n = 1; n <= 3; ++n) cluster.RestoreLink(0, n);
  cluster.Recover(0);
  cluster.RunFor(1000);
  EXPECT_TRUE(cluster.Quiescent());
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(cluster.node(n).store().stale())
        << "node " << n << " lost a decided commit";
  }
}

TEST(TwoPhase, PeersResolveWhenCoordinatorStaysDown) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);
  LockAt(cluster, tx, NodeSet({1, 2, 3}));

  // Prepares ack at t=2 (decision); commits are delivered at t=3. Crash
  // node 3 AND the coordinator at t=2.5: the commits (already on the
  // wire) still reach nodes 1 and 2, but node 3 misses its copy. Node 3
  // recovers while the coordinator stays down, so it must learn the
  // outcome from its PEERS.
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status) {});
  cluster.simulator().Schedule(2.5, [&] {
    cluster.Crash(3);
    cluster.Crash(0);
  });
  cluster.RunFor(200);
  cluster.Recover(3);  // Coordinator stays down.
  cluster.RunFor(2000);
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.node(3).store().stale())
      << "node 3 should learn the commit from peers 1/2";
}

TEST(TwoPhase, ParticipantCutOffFromPhaseTwoResolvesFromPeers) {
  // Participants keep their outcomes after resolving, until the
  // coordinator's forget notice: a peer that missed phase 2 may need them
  // while the coordinator is down.
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);
  LockAt(cluster, tx, NodeSet({1, 2, 3}));

  // Prepares land at t=1 and their acks decide at t=2. Cutting the link
  // to node 3 in between loses only its commit; the others apply theirs
  // at t=3, and the coordinator learns of the lost one then.
  cluster.simulator().Schedule(1.5, [&] { cluster.CutLink(0, 3); });
  Status result = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status s) { result = s; });
  cluster.RunFor(10);
  ASSERT_TRUE(result.ok()) << result.ToString();
  // Node 3 never acknowledged, so the coordinator keeps the decision.
  EXPECT_EQ(cluster.node(0).LookupOutcome(tx), TxOutcome::kCommitted);
  ASSERT_TRUE(cluster.node(3).has_staged_transaction());

  // The coordinator goes down before node 3's termination timer fires.
  cluster.Crash(0);
  cluster.RunFor(cluster.node(3).options().termination_poll_interval * 3);
  EXPECT_FALSE(cluster.node(3).has_staged_transaction())
      << "node 3 blocked on the dead coordinator";
  EXPECT_TRUE(cluster.node(3).store().stale());
  EXPECT_EQ(cluster.node(3).store().desired_version(), 9u);
  EXPECT_EQ(cluster.node(3).LookupOutcome(tx), TxOutcome::kCommitted);
}

TEST(TwoPhase, LateCommitAfterPropagationCatchUpIsSubsumed) {
  // Regression test for a real bug: a participant staged a do-update,
  // crashed through the commit, was re-admitted and caught up PAST the
  // transaction's target version by propagation (whose source had
  // already applied that very update), and then cooperative termination
  // delivered the commit — which must be recognized as subsumed, not
  // re-applied (re-applying minted a phantom version with out-of-order
  // contents).
  Cluster cluster(Options());

  // Everyone starts at v1 (scripted; equivalent to a committed write).
  for (NodeId n = 0; n < 5; ++n) {
    cluster.node(n).store().object().Apply(
        storage::Update::Partial(0, {1}));
  }

  // W2 (-> v2): a 2PC from node 0 applying at {1,2,3}. Node 3 crashes
  // after acking its prepare (t=2) but before the commit lands (t=3).
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) {
    ObjectAction obj;
    obj.apply_update = true;
    obj.update = storage::Update::Partial(1, {2});
    obj.update_target_version = 2;
    StagedAction act;
    act.objects.push_back(std::move(obj));
    actions[n] = std::move(act);
  }
  LockAt(cluster, tx, NodeSet({1, 2, 3}));
  Status w2_status = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](Status s) { w2_status = s; });
  cluster.simulator().Schedule(2.5, [&] { cluster.Crash(3); });
  cluster.RunFor(300);
  ASSERT_TRUE(w2_status.ok());  // Committed; nodes 1,2 applied v2.
  ASSERT_EQ(cluster.node(1).store().version(), 2u);
  ASSERT_TRUE(cluster.node(3).has_staged_transaction());
  ASSERT_EQ(cluster.node(3).store().version(), 1u);

  // The object moves on: v3 lands on nodes 1 and 2 (scripted). Node 3
  // (still down, still staged) is marked stale for v3, and node 1 is
  // given the propagation duty — exactly what a later write + epoch
  // change would do.
  cluster.node(1).store().object().Apply(storage::Update::Partial(0, {3}));
  cluster.node(2).store().object().Apply(storage::Update::Partial(0, {3}));
  cluster.node(3).store().MarkStale(3);
  cluster.node(1).AddPropagationTargets(0, NodeSet({3}));

  // Recovery: propagation catches node 3 up to v3 (which INCLUDES W2's
  // effect) before/while cooperative termination resolves the staged W2
  // as committed. The late commit must be subsumed, not re-applied.
  cluster.Recover(3);
  cluster.RunFor(5000);

  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_FALSE(cluster.node(3).store().stale());
  // The phantom would show as v4 with W2's patch re-applied on top.
  EXPECT_EQ(cluster.node(3).store().version(), 3u)
      << cluster.node(3).store().DebugString();
  EXPECT_EQ(cluster.node(3).store().object().data(),
            cluster.node(1).store().object().data());
  EXPECT_EQ(cluster.node(3).LookupOutcome(tx), TxOutcome::kCommitted);
}

TEST(TwoPhase, EmptyParticipantSetCommitsTrivially) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  Status result = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), tx, {},
                      [&](Status s) { result = s; });
  cluster.simulator().Run();
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace dcp::protocol
