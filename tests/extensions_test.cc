// Tests for the paper's optional extensions and the corner cases its
// prose discusses:
//   - the Section 4.1 vulnerability window (a single good replica fails
//     before propagating) and the safety-threshold extension that
//     eliminates it;
//   - the "no current replica reachable" abort path (max dversion >
//     max version);
//   - propagation fallback to snapshots once the log no longer reaches
//     back to a stale replica's version.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

std::vector<uint8_t> Bytes(const char* s) {
  return std::vector<uint8_t>(s, s + std::string(s).size());
}

ClusterOptions Options(uint32_t safety_threshold = 0) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 47;
  opts.initial_value = Bytes("xxxxxxxx");
  opts.write_options.safety_threshold = safety_threshold;
  // Slow propagation so the vulnerability window stays open long enough
  // to strike deterministically.
  opts.node_options.propagation_start_delay = 50000;
  opts.node_options.propagation_retry_delay = 50000;
  return opts;
}

/// Puts the cluster into the paper's vulnerable state directly: node `g`
/// is the only current replica at version 5; everyone else was marked
/// stale by the 5th write (desired version 5, own version 4). This is a
/// reachable protocol state — a write whose quorum responses were all
/// stale-or-behind except `g` produces exactly it.
void SetupSingleGoodReplica(Cluster& cluster, NodeId g) {
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    auto& store = cluster.node(i).store();
    int target = (i == g) ? 5 : 4;
    for (int v = 0; v < target; ++v) {
      store.object().Apply(storage::Update::Partial(0, {uint8_t('a' + v)}));
    }
    if (i != g) store.MarkStale(5);
  }
}

TEST(VulnerabilityWindow, SingleGoodReplicaFailureBlocksWrites) {
  Cluster cluster(Options());
  SetupSingleGoodReplica(cluster, 4);

  // While node 4 lives, writes succeed (it is the one good replica).
  auto w0 = cluster.WriteSyncRetry(0, Update::Partial(0, {'W'}));
  ASSERT_TRUE(w0.ok()) << w0.status().ToString();
  EXPECT_EQ(w0->version, 6u);

  // Re-establish the vulnerable state and strike: the only current
  // replica dies before propagating anything.
  Cluster cluster2(Options());
  SetupSingleGoodReplica(cluster2, 4);
  cluster2.Crash(4);
  auto w = cluster2.WriteSync(0, Update::Partial(0, {'Z'}));
  EXPECT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsStaleData() || w.status().IsUnavailable())
      << w.status().ToString();
  auto r = cluster2.ReadSync(2);
  EXPECT_FALSE(r.ok());  // Reads must refuse stale bytes too.

  // Epoch checking cannot rescue this either (no current replica).
  Status s = cluster2.CheckEpochSync(0);
  EXPECT_TRUE(s.IsStaleData()) << s.ToString();

  // Only the good replica's recovery reopens the object.
  cluster2.Recover(4);
  auto w2 = cluster2.WriteSyncRetry(0, Update::Partial(0, {'Z'}));
  EXPECT_TRUE(w2.ok()) << w2.status().ToString();
}

TEST(VulnerabilityWindow, SafetyThresholdClosesTheWindow) {
  // With safety threshold k = 3, a write through the vulnerable state
  // immediately re-replicates the current version onto >= 3 replicas —
  // promoted without a permission round — so the death of any 2 replicas
  // can no longer strand the object.
  Cluster cluster(Options(/*safety_threshold=*/3));
  SetupSingleGoodReplica(cluster, 4);

  auto w = cluster.WriteSyncRetry(0, Update::Partial(0, {'T'}));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  uint32_t carriers = 0;
  for (uint32_t j = 0; j < 9; ++j) {
    const auto& s = cluster.node(j).store();
    if (!s.stale() && s.version() == w->version) ++carriers;
  }
  EXPECT_GE(carriers, 3u);

  // Any two simultaneous failures now leave a current copy.
  cluster.Crash(4);
  NodeId second = kInvalidNode;
  for (uint32_t j = 0; j < 9 && second == kInvalidNode; ++j) {
    const auto& s = cluster.node(j).store();
    if (j != 4 && !s.stale() && s.version() == w->version) second = j;
  }
  ASSERT_NE(second, kInvalidNode);
  cluster.Crash(second);
  bool ok = false;
  for (NodeId coord = 0; coord < 9 && !ok; ++coord) {
    if (!cluster.network().IsUp(coord)) continue;
    ok = cluster.WriteSyncRetry(coord, Update::Partial(0, {'U'})).ok();
  }
  EXPECT_TRUE(ok);
}

TEST(VulnerabilityWindow, ThresholdMaintainedAcrossWriteStream) {
  Cluster cluster(Options(/*safety_threshold=*/3));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster
                    .WriteSyncRetry(static_cast<NodeId>(i % 9),
                                    Update::Partial(0, {uint8_t('a' + i)}))
                    .ok());
    Version maxv = 0;
    for (uint32_t j = 0; j < 9; ++j) {
      maxv = std::max(maxv, cluster.node(j).store().version());
    }
    uint32_t carriers = 0;
    for (uint32_t j = 0; j < 9; ++j) {
      const auto& s = cluster.node(j).store();
      if (!s.stale() && s.version() == maxv) ++carriers;
    }
    EXPECT_GE(carriers, 3u) << "after write " << i;
  }
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(NoCurrentReplica, HeavyProcedureReportsStaleData) {
  // max dversion > max version among ALL respondents: the appendix's
  // abort branch ("There is no reason to wait for possible epoch change
  // because such an operation can succeed only if it can obtain a quorum
  // as well").
  Cluster cluster(Options());
  SetupSingleGoodReplica(cluster, 4);
  cluster.Crash(4);
  auto w = cluster.WriteSync(7, Update::Partial(0, {'Q'}));
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsStaleData()) << w.status().ToString();
}

TEST(Propagation, SnapshotFallbackAfterLogTruncation) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 48;
  opts.initial_value = Bytes("snapshot-test");
  Cluster cluster(opts);

  // Make node 8 stale while four 1-byte patches land. Each costs 14 bytes
  // on the wire, more together than a snapshot of the 13-byte value (26
  // bytes), so no current replica's log reaches back to node 8's version
  // and the incremental path is impossible.
  cluster.Crash(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster
                    .WriteSyncRetry(static_cast<NodeId>(i % 8),
                                    Update::Partial(0, {uint8_t(i)}))
                    .ok());
  }
  cluster.RunFor(2000);
  for (uint32_t i = 0; i < 8; ++i) {
    const auto& object = cluster.node(i).store().object();
    if (object.version() == 4) {
      EXPECT_FALSE(object.UpdatesSince(0).ok()) << "node " << i;
    }
  }
  const uint64_t snapshots_before =
      cluster.metrics().CounterValue("prop.snapshot_transfers");
  cluster.Recover(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());  // Re-admits 8 as stale.
  cluster.RunFor(3000);
  EXPECT_GT(cluster.metrics().CounterValue("prop.snapshot_transfers"),
            snapshots_before);

  const auto& store8 = cluster.node(8).store();
  EXPECT_FALSE(store8.stale()) << store8.DebugString();
  EXPECT_EQ(store8.object().Fingerprint(),
            cluster.node(0).store().object().Fingerprint());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

/// The replicas below the newest version.
uint64_t ReplicasBehind(Cluster& cluster) {
  storage::Version newest = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    newest = std::max(newest, cluster.node(i).store().version());
  }
  uint64_t behind = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i).store().version() < newest) ++behind;
  }
  return behind;
}

TEST(Propagation, ShipsAGapOnlyWhileItIsCheaperThanASnapshot) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 51;
  opts.initial_value = std::vector<uint8_t>(4096, 0);
  Cluster cluster(opts);
  auto transfers = [&cluster](const char* kind) {
    return cluster.metrics().CounterValue(std::string("prop.") + kind +
                                          "_transfers");
  };

  // Node 8 misses a total write; so may nodes outside its quorum. The
  // epoch change that re-admits node 8 marks every replica behind stale,
  // and each gets one transfer: a snapshot, since no log holds a total.
  cluster.Crash(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  ASSERT_TRUE(
      cluster.WriteSyncRetry(0, Update::Total(std::vector<uint8_t>(4096, 7)))
          .ok());
  cluster.RunFor(3000);
  const uint64_t behind_total = ReplicasBehind(cluster);
  ASSERT_GE(behind_total, 1u);
  const uint64_t gaps_before = transfers("gap");
  const uint64_t snapshots_before = transfers("snapshot");
  cluster.Recover(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  cluster.RunFor(3000);
  EXPECT_EQ(ReplicasBehind(cluster), 0u);
  EXPECT_EQ(transfers("snapshot") - snapshots_before, behind_total);
  EXPECT_EQ(transfers("gap"), gaps_before);

  // Two 16-byte patches (29 bytes each on the wire) cost far less than a
  // snapshot of the 4 KiB value: whoever missed them gets the gap.
  cluster.Crash(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  for (uint8_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(cluster
                    .WriteSyncRetry(i, Update::Partial(
                                           64 * i, std::vector<uint8_t>(16, i)))
                    .ok());
  }
  cluster.RunFor(3000);
  const uint64_t behind_patches = ReplicasBehind(cluster);
  ASSERT_GE(behind_patches, 1u);
  const uint64_t gaps_mid = transfers("gap");
  const uint64_t snapshots_mid = transfers("snapshot");
  cluster.Recover(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  cluster.RunFor(3000);
  EXPECT_EQ(ReplicasBehind(cluster), 0u);
  EXPECT_EQ(transfers("gap") - gaps_mid, behind_patches);
  EXPECT_EQ(transfers("snapshot"), snapshots_mid);
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());

  // A gap that does not start at the receiver's next version is refused,
  // and the receiver stays where it was.
  ReplicaNode& node = cluster.node(8);
  const storage::Version at = node.store().version();
  node.store().MarkStale(at + 3);
  auto offer = std::make_shared<PropagationOffer>();
  offer->source_version = at + 3;
  offer->transfer_id = 99;
  auto granted = node.HandleRequest(0, msg::kPropOffer, offer);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(net::As<PropagationOfferReply>(*granted).verdict,
            PropagationVerdict::kPermitted);
  auto data = std::make_shared<PropagationData>();
  data->transfer_id = 99;
  data->first_version = at + 2;
  data->updates = {Update::Partial(0, {1}), Update::Partial(0, {2})};
  auto refused = node.HandleRequest(0, msg::kPropData, data);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  EXPECT_EQ(node.store().version(), at);
  EXPECT_TRUE(node.store().stale());
  EXPECT_FALSE(node.store().IsLocked());
}

TEST(Propagation, DesiredVersionGuardsAgainstStaleSources) {
  // A stale replica may only accept propagation from a source at or
  // beyond its desired version (Lemma 3's machinery).
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 49;
  opts.initial_value = {0};
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.WriteSyncRetry(0, Update::Partial(0, {'a'})).ok());
  cluster.node(3).store().MarkStale(99);  // Wants version 99.

  auto offer = std::make_shared<PropagationOffer>();
  offer->source_version = 5;  // Too old.
  offer->transfer_id = 1;
  auto reply = cluster.node(3).HandleRequest(0, msg::kPropOffer, offer);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(net::As<PropagationOfferReply>(*reply).verdict,
            PropagationVerdict::kIAmCurrent);  // Refused (per pseudocode).
  EXPECT_TRUE(cluster.node(3).store().stale());  // Still waiting.
}

TEST(Propagation, BusyReplicaAnswersAlreadyRecovering) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 50;
  opts.initial_value = {0};
  Cluster cluster(opts);
  cluster.node(3).store().MarkStale(1);
  // A write operation holds the replica's exclusive lock (taken through
  // the RPC path so the lock lease is tracked).
  storage::LockOwner writer{7, 123};
  auto lock_req = std::make_shared<LockRequest>();
  lock_req->owner = writer;
  lock_req->mode = LockMode::kExclusive;
  ASSERT_TRUE(cluster.node(3).HandleRequest(7, msg::kLock, lock_req).ok());

  auto offer = std::make_shared<PropagationOffer>();
  offer->source_version = 2;
  offer->transfer_id = 9;
  auto reply = cluster.node(3).HandleRequest(0, msg::kPropOffer, offer);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(net::As<PropagationOfferReply>(*reply).verdict,
            PropagationVerdict::kAlreadyRecovering);
}

}  // namespace
}  // namespace dcp::protocol
