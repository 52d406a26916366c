// Read-protocol specifics: shared-lock concurrency, the heavy read
// fallback, read/write exclusion, and read availability exceeding write
// availability on the grid (reads need no full column).

#include <gtest/gtest.h>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions Options(uint32_t n = 9) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 61;
  opts.initial_value = {'r', '0'};
  return opts;
}

TEST(ProtocolRead, ConcurrentReadsShareLocks) {
  Cluster cluster(Options());
  ASSERT_TRUE(cluster.WriteSyncRetry(0, Update::Partial(1, {'1'})).ok());
  // Launch several reads at once; shared locks mean none may conflict.
  int done = 0, ok = 0;
  for (NodeId coord = 0; coord < 6; ++coord) {
    cluster.Read(coord, [&](Result<ReadOutcome> r) {
      ++done;
      if (r.ok()) ++ok;
    });
  }
  while (done < 6 && cluster.simulator().Step()) {
  }
  EXPECT_EQ(ok, 6);
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ProtocolRead, ReadBlocksDuringWriteCommit) {
  // A read whose quorum intersects a mid-2PC write must conflict (the
  // write holds exclusive locks through its decision), preserving
  // read-latest semantics.
  Cluster cluster(Options());
  bool write_done = false;
  cluster.Write(0, Update::Partial(1, {'X'}),
                [&](Result<WriteOutcome>) { write_done = true; });
  cluster.RunFor(1.2);  // Locks are in flight/held; commit not yet done.
  auto r = cluster.ReadSync(4);
  // Either the read serialized after the write (sees v1) or it conflicted
  // and failed; it must NOT return version 0 data if the write committed
  // before the read started — the history checker arbitrates exactly
  // this, so just run both to completion and check.
  while (!write_done && cluster.simulator().Step()) {
  }
  EXPECT_TRUE(cluster.CheckHistory().ok()) << cluster.CheckHistory().ToString();
}

TEST(ProtocolRead, HeavyReadAfterEpochDrift) {
  // Coordinator 8 sleeps through an epoch change; its first read draws a
  // quorum from the stale epoch list, detects the newer epoch in the
  // responses, and falls back to the heavy path — still succeeding.
  Cluster cluster(Options());
  cluster.Crash(4);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  ASSERT_TRUE(cluster.WriteSyncRetry(0, Update::Partial(1, {'9'})).ok());
  // Node 8 still holds the epoch-0 list? No: it was a 2PC participant of
  // the epoch change. Simulate drift instead: crash 8 before the change.
  Cluster cluster2(Options());
  cluster2.Crash(8);
  ASSERT_TRUE(cluster2.CheckEpochSync(0).ok());
  ASSERT_TRUE(cluster2.WriteSyncRetry(0, Update::Partial(1, {'7'})).ok());
  cluster2.Recover(8);
  // Node 8's epoch list still names all 9 nodes (epoch 0); a read from
  // it must still find the current data (via the responses' epoch list).
  auto r = cluster2.ReadSyncRetry(8, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data[1], '7');
}

TEST(ProtocolRead, GridReadsSurviveFailuresThatBlockWrites) {
  // 3x3 grid: losing one node from EVERY column (a grid row) leaves no
  // completely-live column — killing every write quorum — while reads
  // only need one representative per column and still succeed. This is
  // the read/write availability asymmetry of Section 5.
  Cluster cluster(Options());
  ASSERT_TRUE(cluster.WriteSyncRetry(3, Update::Partial(1, {'z'})).ok());
  cluster.RunFor(2000);  // Drain propagation so survivors are current.
  // Kill the top row {0,1,2}: one member of each column {0,3,6}/{1,4,7}/
  // {2,5,8}. No epoch change runs, so writes must fail...
  cluster.Crash(0);
  cluster.Crash(1);
  cluster.Crash(2);
  auto w = cluster.WriteSync(3, Update::Partial(1, {'!'}));
  EXPECT_FALSE(w.ok());
  // ...but reads still work.
  auto r = cluster.ReadSyncRetry(3, 0);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data[1], 'z');
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ProtocolRead, ReadRefusesWhenOnlyStaleReplicasReachable) {
  Cluster cluster(Options());
  // Hand-build: node 4 is the only current replica (v3); rest stale.
  for (uint32_t i = 0; i < 9; ++i) {
    auto& store = cluster.node(i).store();
    int target = (i == 4) ? 3 : 2;
    for (int v = 0; v < target; ++v) {
      store.object().Apply(storage::Update::Partial(0, {uint8_t(v)}));
    }
    if (i != 4) store.MarkStale(3);
  }
  cluster.Crash(4);
  auto r = cluster.ReadSync(0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsStaleData() || r.status().IsUnavailable())
      << r.status().ToString();
}

TEST(ProtocolRead, FetchTargetRotatesAcrossGoodReplicas) {
  Cluster cluster(Options());
  ASSERT_TRUE(cluster.WriteSyncRetry(0, Update::Total({'d'})).ok());
  cluster.RunFor(2000);
  cluster.metrics().ResetPrefix("net.");
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.ReadSyncRetry(static_cast<NodeId>(i % 9), 0).ok());
  }
  // Fetches should not all hit one node. The per-node delivery counts
  // aggregate all types, so instead assert total fetches == 30 and rely
  // on the quorum-function rotation tested elsewhere.
  EXPECT_EQ(cluster.metrics().CounterValue("net.type.fetch.sent"), 30u);
}

}  // namespace
}  // namespace dcp::protocol
