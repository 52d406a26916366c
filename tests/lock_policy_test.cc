// The one lock-conflict rule (the paper defers deadlock handling to [2]):
// a conflicting lock request is refused, and the coordinator aborts and
// retries. The only exception is lease stealing: a non-staged lock whose
// lease has run out belongs to a coordinator presumed dead and may be
// taken. A staged (prepared) lock is never taken.

#include <gtest/gtest.h>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 71;
  opts.initial_value = {0};
  opts.latency = net::LatencyModel{1.0, 0.0};
  return opts;
}

Result<net::PayloadPtr> Lock(Cluster& cluster, NodeId node,
                             storage::LockOwner owner) {
  auto req = std::make_shared<LockRequest>();
  req->owner = owner;
  req->mode = LockMode::kExclusive;
  return cluster.node(node).HandleRequest(owner.coordinator, msg::kLock, req);
}

TEST(RefusePolicy, NonStagedLockIsRefusedUntilItsLeaseRunsOut) {
  Cluster cluster(Options());
  cluster.RunFor(100);
  const rt::Time lease = cluster.node(5).options().lock_lease;
  storage::LockOwner holder{1, 10};
  ASSERT_TRUE(Lock(cluster, 5, holder).ok());
  // Every other owner is refused while the lease runs, whichever
  // coordinator it comes from and however often it asks.
  for (NodeId coordinator : {0, 2, 3, 8}) {
    auto refused = Lock(cluster, 5, storage::LockOwner{coordinator, 11});
    EXPECT_TRUE(refused.status().IsConflict()) << "coordinator "
                                               << coordinator;
    EXPECT_TRUE(cluster.node(5).store().HoldsLock(holder));
  }
  cluster.RunFor(lease - 1);
  EXPECT_TRUE(Lock(cluster, 5, storage::LockOwner{2, 12}).status()
                  .IsConflict());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(holder));

  // Once the lease has run out, the next request steals the lock.
  cluster.RunFor(2);
  storage::LockOwner thief{2, 13};
  EXPECT_TRUE(Lock(cluster, 5, thief).ok());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(thief));
  EXPECT_FALSE(cluster.node(5).store().HoldsLock(holder));
  EXPECT_TRUE(cluster.node(5).LockIndexConsistent());
}

TEST(RefusePolicy, StagedLockIsNeverStolen) {
  Cluster cluster(Options());
  cluster.RunFor(100);
  // Stage a transaction at node 5 (prepared = committing; untouchable).
  storage::LockOwner committing{1, 10};
  ASSERT_TRUE(Lock(cluster, 5, committing).ok());
  auto prepare = std::make_shared<PrepareRequest>();
  prepare->owner = committing;
  ObjectAction act;
  act.mark_stale = true;
  act.desired_version = 5;
  prepare->action.objects.push_back(act);
  prepare->participants = NodeSet({5});
  ASSERT_TRUE(cluster.node(5).HandleRequest(1, msg::kPrepare, prepare).ok());

  // The coordinator dies, so the transaction stays in doubt: long after
  // its lease, the staged lock still refuses every request.
  cluster.Crash(1);
  const rt::Time lease = cluster.node(5).options().lock_lease;
  cluster.RunFor(3 * lease);
  auto refused = Lock(cluster, 5, storage::LockOwner{2, 11});
  EXPECT_TRUE(refused.status().IsConflict());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(committing));
  EXPECT_EQ(cluster.metrics().counter("node.5.lock_steals")->value(), 0u);
}

TEST(RefusePolicy, EndToEndContentionStillSerializable) {
  // Many concurrent writers on one object: everything must stay 1SR and
  // the replicas consistent.
  Cluster cluster(Options());
  int done = 0, committed = 0;
  for (int i = 0; i < 20; ++i) {
    cluster.simulator().Schedule(i * 2.0, [&cluster, &done, &committed, i] {
      cluster.Write(static_cast<NodeId>(i % 9), Update::Partial(0, {uint8_t(i)}),
                    [&](Result<WriteOutcome> r) {
                      ++done;
                      if (r.ok()) ++committed;
                    });
    });
  }
  while (done < 20 && cluster.simulator().Step()) {
  }
  cluster.RunFor(5000);
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.CheckHistory().ok()) << cluster.CheckHistory().ToString();
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

}  // namespace
}  // namespace dcp::protocol
