// Read-protocol specifics: shared-lock concurrency, the heavy read
// fallback, read/write exclusion, read availability exceeding write
// availability on the grid (reads need no full column), and the data a
// lock grant carries in place of a fetch.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

/// What one read sent: the member its lock round named to return the
/// data, the nodes whose grant carried data, and its fetch targets.
struct ReadTrace {
  std::optional<NodeId> named;
  NodeSet data_senders;
  std::vector<NodeId> fetched_from;
};

/// Records every read message the cluster sends into `*trace`.
void TraceReads(Cluster& cluster, ReadTrace* trace) {
  cluster.network().set_send_tap([trace](const net::Message& msg) {
    const net::Payload* p = msg.payload.get();
    if (const auto* lock = dynamic_cast<const LockRequest*>(p)) {
      if (lock->data_from) trace->named = lock->data_from;
    } else if (const auto* grant = dynamic_cast<const LockResponse*>(p)) {
      if (grant->data) trace->data_senders.Insert(msg.src);
    } else if (dynamic_cast<const FetchRequest*>(p) != nullptr) {
      trace->fetched_from.push_back(msg.dst);
    }
  });
}

/// Hand-builds one version, v1 = "d", on every replica. (A write leaves
/// the nodes outside its quorum behind until a later write reaches them.)
void MakeEveryReplicaCurrent(Cluster& cluster) {
  for (NodeId i = 0; i < 9; ++i) {
    cluster.node(i).store().object().Apply(Update::Total({'d'}));
  }
}

TEST(ProtocolRead, CurrentGrantHolderMakesTheFetchUnneeded) {
  ReadTrace trace;  // Outlives the cluster, whose send tap writes it.
  Cluster cluster(Options());
  MakeEveryReplicaCurrent(cluster);
  TraceReads(cluster, &trace);
  for (int i = 0; i < 30; ++i) {
    trace = ReadTrace{};
    auto r = cluster.ReadSyncRetry(static_cast<NodeId>(i % 9), 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->version, 1u);
    EXPECT_EQ(r->data, std::vector<uint8_t>{'d'});
    // One named member, and only its grant carried the data.
    ASSERT_TRUE(trace.named.has_value());
    EXPECT_EQ(trace.data_senders, NodeSet{*trace.named});
  }
  EXPECT_EQ(cluster.metrics().CounterValue("net.type.fetch.sent"), 0u);
}

TEST(ProtocolRead, DataBearingGrantsComeFromManyNodes) {
  ReadTrace trace;  // Outlives the cluster, whose send tap writes it.
  Cluster cluster(Options());
  MakeEveryReplicaCurrent(cluster);
  TraceReads(cluster, &trace);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.ReadSyncRetry(static_cast<NodeId>(i % 9), 0).ok());
  }
  // Rotating coordinators spread the data transfer across replicas.
  EXPECT_GT(trace.data_senders.Size(), 1u);
}

/// Hand-builds what a write of v3 through the write quorum {0,1,2,3,6}
/// (grid column {0,3,6} plus one node of each other column) leaves: those
/// nodes hold v3, the rest v2, marked stale for v3 if `mark_stale`. Every
/// read quorum meets the full column, so every read must return v3, and
/// fetch it exactly when the member its lock round named lags.
void ExpectOneFetchWhenTheNamedMemberLags(bool mark_stale) {
  ReadTrace trace;  // Outlives the cluster, whose send tap writes it.
  Cluster cluster(Options());
  const NodeSet current{0, 1, 2, 3, 6};
  for (NodeId i = 0; i < 9; ++i) {
    auto& store = cluster.node(i).store();
    int target = current.Contains(i) ? 3 : 2;
    for (int v = 0; v < target; ++v) {
      store.object().Apply(storage::Update::Partial(0, {uint8_t(v)}));
    }
    if (mark_stale && !current.Contains(i)) store.MarkStale(3);
  }
  TraceReads(cluster, &trace);
  int lagging_named = 0;
  int current_named = 0;
  for (int i = 0; i < 18; ++i) {
    trace = ReadTrace{};
    auto r = cluster.ReadSync(static_cast<NodeId>(i % 9));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->version, 3u);
    EXPECT_EQ(r->data[0], 2);
    ASSERT_TRUE(trace.named.has_value());
    if (current.Contains(*trace.named)) {
      ++current_named;
      EXPECT_TRUE(trace.fetched_from.empty());
    } else {
      ++lagging_named;
      ASSERT_EQ(trace.fetched_from.size(), 1u);
      EXPECT_TRUE(current.Contains(trace.fetched_from[0]))
          << "fetched from " << trace.fetched_from[0];
    }
  }
  // Both branches ran.
  EXPECT_GT(lagging_named, 0);
  EXPECT_GT(current_named, 0);
}

TEST(ProtocolRead, BehindGrantHolderFallsBackToOneFetch) {
  ExpectOneFetchWhenTheNamedMemberLags(/*mark_stale=*/false);
}

TEST(ProtocolRead, StaleGrantHolderFallsBackToOneFetch) {
  ExpectOneFetchWhenTheNamedMemberLags(/*mark_stale=*/true);
}

}  // namespace
}  // namespace dcp::protocol
