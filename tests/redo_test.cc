// Redo records at the node (protocol/redo.h, ReplicaNode::Apply).
//
// Replay against the live path: a node that crashes with its whole log
// synced must recover to exactly the persistent state it had: every
// hosted object's version, data, stale flag and desired version, every
// lineage's epoch, the staged transactions, the outcomes and the
// propagation duties. Seeded durable clusters (one group deployment, one
// sharded) run a crash-point storm; every up node is then flushed behind
// a barrier, crashed, recovered and compared with its own state from
// just before the crash.
//
// What each record means: records appended straight to a node's store,
// then read back through the node after a crash and recovery.
//
// The outcome log: forgotten 2PC outcomes keep a node's outcomes and its
// checkpoints from growing with the number of transactions.
//
// The update log: each replica keeps only the updates whose gap is still
// cheaper than a snapshot, however many writes accumulate.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "harness/nemesis.h"
#include "harness/workload.h"
#include "protocol/cluster.h"
#include "protocol/redo.h"

namespace dcp::protocol {
namespace {

using storage::Update;
using TxKey = ReplicaNode::TxKey;

/// What recovery must reproduce. The operation-id counter is left out:
/// recovery skips a stride of ids on purpose.
struct PersistentImage {
  struct Object {
    storage::Version version;
    uint64_t fingerprint;
    bool stale;
    storage::Version desired_version;
    bool operator==(const Object&) const = default;
  };
  std::map<storage::ObjectId, Object> objects;
  std::map<storage::ObjectId, storage::EpochRecord> epochs;
  std::map<TxKey, std::vector<uint8_t>> staged;  ///< Encoded Stage records.
  std::map<TxKey, TxOutcome> outcomes;
  std::map<storage::ObjectId, NodeSet> duties;  ///< Non-empty only.
};

/// `value`'s field-list encoding.
std::vector<uint8_t> Encoded(const auto& value) {
  store::ByteWriter w;
  store::Put{w}(value);
  return w.Take();
}

PersistentImage Capture(const ReplicaNode& node) {
  PersistentImage image;
  for (storage::ObjectId id : node.HostedObjects()) {
    const storage::ReplicaStore& store = node.store(id);
    image.objects[id] = {store.version(), store.object().Fingerprint(),
                         store.stale(), store.desired_version()};
    image.epochs[id] = node.epoch(id);
    const NodeSet duty = node.pending_propagation(id);
    if (!duty.Empty()) image.duties[id] = duty;
  }
  for (const auto& [key, staged] : node.staged()) {
    image.staged[key] = Encoded(staged);
  }
  image.outcomes = node.outcomes();
  return image;
}

void ExpectSame(const PersistentImage& live, const PersistentImage& replayed,
                NodeId node) {
  EXPECT_TRUE(live.objects == replayed.objects) << "node " << node;
  ASSERT_EQ(live.epochs.size(), replayed.epochs.size()) << "node " << node;
  for (const auto& [id, epoch] : live.epochs) {
    const storage::EpochRecord& other = replayed.epochs.at(id);
    EXPECT_EQ(epoch.number, other.number) << "node " << node << " object "
                                          << id;
    EXPECT_EQ(epoch.list, other.list) << "node " << node << " object " << id;
  }
  EXPECT_TRUE(live.staged == replayed.staged) << "node " << node;
  EXPECT_TRUE(live.outcomes == replayed.outcomes) << "node " << node;
  EXPECT_TRUE(live.duties == replayed.duties) << "node " << node;
}

/// Runs the cluster until every up node's log is durable to its end,
/// issuing a commit barrier on each node whose log is not.
void FlushAll(Cluster& cluster) {
  for (int step = 0; step < 1000; ++step) {
    bool synced = true;
    for (NodeId id : cluster.UpNodes()) {
      store::DurableStore& store = *cluster.node(id).durable_store();
      if (store.end_lsn() == store.wal().durable_end_lsn()) continue;
      synced = false;
      store.Commit([] {});
    }
    if (synced) return;
    cluster.RunFor(1);
  }
  FAIL() << "the logs never reached a synced end";
}

/// How much persistent state the comparisons covered.
struct Coverage {
  size_t nodes = 0;
  size_t staged = 0;
  size_t duties = 0;
  size_t reformed_lineages = 0;  ///< Lineage copies past epoch 0.
  size_t from_checkpoint = 0;    ///< Recoveries that read a checkpoint.
};

/// Crashes and recovers every up node in turn, without advancing the
/// simulation, and checks it came back as it went down.
void ExpectReplayEqualsLive(Cluster& cluster, Coverage& coverage) {
  FlushAll(cluster);
  for (NodeId id : cluster.UpNodes()) {
    const PersistentImage live = Capture(cluster.node(id));
    cluster.Crash(id);
    cluster.Recover(id);
    ExpectSame(live, Capture(cluster.node(id)), id);
    ++coverage.nodes;
    if (cluster.node(id).durable_store()->last_recovery().from_checkpoint) {
      ++coverage.from_checkpoint;
    }
    coverage.staged += live.staged.size();
    coverage.duties += live.duties.size();
    for (const auto& [object, epoch] : live.epochs) {
      if (epoch.number > 0) ++coverage.reformed_lineages;
    }
  }
}

ClusterOptions GroupOptions(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.num_objects = 2;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.durability.enabled = true;
  opts.durability.crash.tear_probability = 0.5;
  opts.durability.checkpoint_threshold_bytes = 2048;
  return opts;
}

ClusterOptions ShardedOptions(uint64_t seed) {
  ClusterOptions opts = GroupOptions(seed);
  opts.num_nodes = 7;
  opts.num_objects = 12;
  opts.sharded = true;
  opts.replication_factor = 5;
  opts.coterie = CoterieKind::kMajority;
  return opts;
}

enum class StopAt { kMidRun, kQuiescence };

struct ReplayCase {
  const char* name;
  bool sharded;
  StopAt stop;
};

class ReplayEqualsLive : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(ReplayEqualsLive, RecoveredNodeMatchesItsLiveState) {
  const ReplayCase& c = GetParam();
  constexpr sim::Time kHorizon = 12000;
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (double rate : {0.01, 0.02}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                   std::to_string(rate));
      Cluster cluster(c.sharded ? ShardedOptions(seed) : GroupOptions(seed));
      harness::Nemesis nemesis(
          &cluster, harness::CrashPointScenario(seed + 17,
                                                cluster.num_nodes(), kHorizon));
      harness::WorkloadDriver::Options wopts;
      wopts.arrival_rate = rate;
      wopts.seed = seed + 2;
      harness::WorkloadDriver workload(&cluster, wopts);
      if (c.stop == StopAt::kMidRun) {
        cluster.RunFor(kHorizon / 2);
      } else {
        cluster.RunFor(kHorizon);
        workload.Stop();
        nemesis.StopAndHeal();
        cluster.RunFor(6000);
        ASSERT_TRUE(cluster.Quiescent());
      }
      ExpectReplayEqualsLive(cluster, coverage);
    }
  }
  // The runs must reach the state worth comparing.
  EXPECT_GT(coverage.nodes, 0u);
  EXPECT_GT(coverage.reformed_lineages, 0u);
  EXPECT_GT(coverage.from_checkpoint, 0u);
  if (c.stop == StopAt::kMidRun) {
    EXPECT_GT(coverage.staged, 0u);
    EXPECT_GT(coverage.duties, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, ReplayEqualsLive,
    ::testing::Values(ReplayCase{"GroupMidRun", false, StopAt::kMidRun},
                      ReplayCase{"GroupQuiescent", false, StopAt::kQuiescence},
                      ReplayCase{"ShardedMidRun", true, StopAt::kMidRun},
                      ReplayCase{"ShardedQuiescent", true,
                                 StopAt::kQuiescence}),
    [](const ::testing::TestParamInfo<ReplayCase>& info) {
      return std::string(info.param.name);
    });

// --- what each record means ------------------------------------------------

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// A quiet durable deployment whose crashes drop the whole unsynced tail.
ClusterOptions RecordOptions() {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.num_objects = 2;
  opts.coterie = CoterieKind::kMajority;
  opts.initial_value = Bytes("init");
  opts.durability.enabled = true;
  opts.durability.crash.tear_probability = 0;
  return opts;
}

constexpr NodeId kNode = 0;

template <typename R>
void Append(Cluster& cluster, const R& record) {
  redo::Append(*cluster.node(kNode).durable_store(), record);
}

/// Makes everything appended so far durable, then crashes and recovers
/// the node.
void SyncCrashRecover(Cluster& cluster) {
  bool synced = false;
  cluster.node(kNode).durable_store()->Commit([&synced] { synced = true; });
  while (!synced) cluster.RunFor(1);
  cluster.Crash(kNode);
  cluster.Recover(kNode);
}

/// A staged write of `value` as version 1 of `object`.
StagedAction WriteOf(storage::ObjectId object, const std::string& value) {
  StagedAction action;
  ObjectAction write;
  write.object = object;
  write.apply_update = true;
  write.update = Update::Total(Bytes(value));
  write.update_target_version = 1;
  action.objects.push_back(write);
  return action;
}

TEST(RedoRecords, EffectRecordsReplayInOrder) {
  Cluster cluster(RecordOptions());
  Append(cluster, redo::Update{0, 1, Update::Total(Bytes("v1"))});
  Append(cluster, redo::Update{0, 2, Update::Partial(1, Bytes("X"))});
  Append(cluster, redo::MarkStale{0, 5});
  Append(cluster, redo::EpochInstall{3, NodeSet::FromVector({0, 1, 2})});
  Append(cluster, redo::PropAdd{0, NodeSet::FromVector({3, 4})});
  Append(cluster, redo::PropDone{0, 3});
  SyncCrashRecover(cluster);

  ReplicaNode& node = cluster.node(kNode);
  EXPECT_EQ(node.store(0).version(), 2u);
  EXPECT_EQ(node.store(0).object().data(), Bytes("vX"));
  EXPECT_TRUE(node.store(0).stale());
  EXPECT_EQ(node.store(0).desired_version(), 5u);
  EXPECT_EQ(node.epoch(0).number, 3u);
  EXPECT_EQ(node.epoch(0).list, NodeSet::FromVector({0, 1, 2}));
  EXPECT_EQ(node.pending_propagation(0), NodeSet::FromVector({4}));
  EXPECT_EQ(node.durable_store()->last_recovery().replayed_records, 6u);
}

TEST(RedoRecords, ClearStaleAndSnapshotReplay) {
  Cluster cluster(RecordOptions());
  Append(cluster, redo::MarkStale{0, 4});
  Append(cluster, redo::Snapshot{0, 4, Bytes("caught-up")});
  Append(cluster, redo::ClearStale{0});
  SyncCrashRecover(cluster);

  const storage::ReplicaStore& store = cluster.node(kNode).store(0);
  EXPECT_FALSE(store.stale());
  EXPECT_EQ(store.desired_version(), 0u);
  EXPECT_EQ(store.version(), 4u);
  EXPECT_EQ(store.object().data(), Bytes("caught-up"));
}

TEST(RedoRecords, ResolveErasesStagedButDecideDoesNot) {
  // The record-type distinction that keeps a crashed coordinator's
  // transaction recoverable: Resolve means "effects applied, staged
  // entry dead"; Decide means "outcome known, staged entry still owed
  // its effects".
  Cluster cluster(RecordOptions());
  const LockOwner resolved{1, 10};
  const LockOwner decided{1, 11};
  const NodeSet participants = NodeSet::FromVector({0, 1});
  Append(cluster, redo::Stage{resolved, participants, WriteOf(0, "a")});
  Append(cluster, redo::Stage{decided, participants, WriteOf(1, "b")});
  Append(cluster, redo::Resolve{resolved, TxOutcome::kCommitted});
  Append(cluster, redo::Decide{decided, TxOutcome::kCommitted});
  SyncCrashRecover(cluster);

  ReplicaNode& node = cluster.node(kNode);
  EXPECT_EQ(node.staged().count({1, 10}), 0u);
  ASSERT_EQ(node.staged().count({1, 11}), 1u);
  EXPECT_EQ(Encoded(node.staged().at({1, 11}).action),
            Encoded(WriteOf(1, "b")));
  EXPECT_EQ(node.staged().at({1, 11}).participants, participants);
  EXPECT_EQ(node.LookupOutcome(resolved), TxOutcome::kCommitted);
  EXPECT_EQ(node.LookupOutcome(decided), TxOutcome::kCommitted);
  // Only the decided action still guards its footprint, and neither
  // action's effects were replayed: no effect record was logged.
  EXPECT_FALSE(node.store(0).IsLocked());
  EXPECT_TRUE(node.store(1).IsLocked());
  EXPECT_EQ(node.store(0).version(), 0u);
  EXPECT_EQ(node.store(1).version(), 0u);

  // Termination finds the durable outcome and applies what it owes.
  cluster.RunFor(node.options().termination_poll_interval + 1);
  EXPECT_FALSE(node.has_staged_transaction());
  EXPECT_EQ(node.store(1).version(), 1u);
  EXPECT_EQ(node.store(1).object().data(), Bytes("b"));
  EXPECT_EQ(node.store(0).version(), 0u);
}

TEST(RedoRecords, EpochReplayNeverRegresses) {
  Cluster cluster(RecordOptions());
  Append(cluster, redo::EpochInstall{5, NodeSet::FromVector({0, 1, 2})});
  Append(cluster, redo::EpochInstall{3, NodeSet::FromVector({3, 4})});
  SyncCrashRecover(cluster);

  EXPECT_EQ(cluster.node(kNode).epoch(0).number, 5u);
  EXPECT_EQ(cluster.node(kNode).epoch(0).list, NodeSet::FromVector({0, 1, 2}));
}

TEST(RedoRecords, CheckpointAloneRebuildsTheNode) {
  // A crash right after a checkpoint publishes: the log past it is empty,
  // so the checkpoint's records alone must bring back every kind of
  // persistent state.
  ClusterOptions opts = RecordOptions();
  opts.durability.checkpoint_threshold_bytes = 2048;
  Cluster cluster(opts);
  const NodeSet participants = NodeSet::FromVector({0, 1});
  Append(cluster, redo::Update{0, 1, Update::Total(Bytes("v1"))});
  Append(cluster, redo::Update{0, 2, Update::Partial(1, Bytes("X"))});
  Append(cluster, redo::MarkStale{1, 4});
  Append(cluster, redo::EpochInstall{3, NodeSet::FromVector({0, 1, 2})});
  Append(cluster, redo::Stage{{1, 10}, participants, WriteOf(0, "a")});
  Append(cluster, redo::Decide{{2, 20}, TxOutcome::kCommitted});
  Append(cluster, redo::PropAdd{0, NodeSet::FromVector({1, 2})});
  SyncCrashRecover(cluster);  // The live state now holds the records.

  // A snapshot older than the replica changes nothing but grows the log
  // past the threshold, so its barrier publishes a checkpoint.
  ReplicaNode& node = cluster.node(kNode);
  store::DurableStore& store = *node.durable_store();
  Append(cluster, redo::Snapshot{0, 0, std::vector<uint8_t>(2048, 0)});
  store.Commit([] {});
  obs::Counter* checkpoints = cluster.metrics().counter("store.checkpoints");
  const uint64_t before = checkpoints->value();
  while (checkpoints->value() == before) cluster.RunFor(0.1);
  ASSERT_EQ(store.end_lsn(), store.wal().base_lsn()) << "no record after it";

  const PersistentImage live = Capture(node);
  ASSERT_TRUE(live.objects.at(1).stale);
  ASSERT_EQ(live.staged.size(), 1u);
  ASSERT_EQ(live.outcomes.size(), 1u);
  ASSERT_EQ(live.duties.size(), 1u);
  ASSERT_EQ(live.epochs.at(0).number, 3u);
  cluster.Crash(kNode);
  cluster.Recover(kNode);
  EXPECT_TRUE(store.last_recovery().from_checkpoint);
  EXPECT_EQ(store.last_recovery().replayed_records, 0u);
  ExpectSame(live, Capture(node), kNode);
}

TEST(RedoRecords, OperationIdWatermarkPreventsReuse) {
  Cluster cluster(RecordOptions());
  ReplicaNode& node = cluster.node(kNode);
  // Mint a few ids; the watermark record rides the barrier.
  EXPECT_EQ(node.NextOperationId(), 1u);
  EXPECT_EQ(node.NextOperationId(), 2u);
  SyncCrashRecover(cluster);

  // The durable watermark sits a stride past the first reservation (next
  // id 2), and recovery skips one more stride past it, so no id handed
  // out before the crash comes back.
  EXPECT_EQ(node.NextOperationId(), 2 + 2 * redo::kOpIdStride);
}

TEST(RedoRecords, WatermarkLostWithTailStillCoveredByStride) {
  // Even if the latest watermark record is unsynced at the crash, the
  // previous durable watermark plus the recovery stride keeps recovered
  // ids ahead of anything minted before the crash (fewer than a stride's
  // worth of ids fit between two watermark flushes).
  Cluster cluster(RecordOptions());
  ReplicaNode& node = cluster.node(kNode);
  (void)node.NextOperationId();
  bool synced = false;
  node.durable_store()->Commit([&synced] { synced = true; });
  while (!synced) cluster.RunFor(1);
  const uint64_t durable_watermark = 2 + redo::kOpIdStride;

  // Enough ids to append a second watermark record, which never syncs.
  const uint64_t records_before =
      cluster.metrics().counter("wal.records")->value();
  uint64_t last_id = 0;
  for (int i = 0; i < 200; ++i) last_id = node.NextOperationId();
  ASSERT_GT(cluster.metrics().counter("wal.records")->value(),
            records_before);
  cluster.Crash(kNode);
  cluster.Recover(kNode);

  const uint64_t next = node.NextOperationId();
  EXPECT_EQ(next, durable_watermark + redo::kOpIdStride);
  EXPECT_GT(next, last_id);
}

TEST(RedoRecords, PropagationWithAGapIsRefusedAndReleasesTheTransfer) {
  Cluster cluster(RecordOptions());
  ReplicaNode& node = cluster.node(kNode);
  node.store(0).MarkStale(2);
  auto offer = std::make_shared<PropagationOffer>();
  offer->object = 0;
  offer->source_version = 2;
  offer->transfer_id = 77;
  auto data = std::make_shared<PropagationData>();
  data->object = 0;
  data->transfer_id = 77;
  data->updates = {Update::Partial(0, Bytes("a")),
                   Update::Partial(1, Bytes("b"))};

  Result<net::PayloadPtr> granted =
      node.HandleRequest(1, msg::kPropOffer, offer);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(net::As<PropagationOfferReply>(*granted).verdict,
            PropagationVerdict::kPermitted);
  ASSERT_TRUE(node.store(0).locked_for_propagation());

  // The replica is at version 0, so updates starting at 2 leave a gap.
  data->first_version = 2;
  Result<net::PayloadPtr> refused =
      node.HandleRequest(1, msg::kPropData, data);
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(node.store(0).locked_for_propagation());
  EXPECT_FALSE(node.store(0).IsLocked());
  EXPECT_EQ(node.store(0).version(), 0u);
  EXPECT_TRUE(node.store(0).stale());

  // The same transfer without the gap catches the replica up.
  ASSERT_TRUE(node.HandleRequest(1, msg::kPropOffer, offer).ok());
  data->first_version = 1;
  ASSERT_TRUE(node.HandleRequest(1, msg::kPropData, data).ok());
  EXPECT_EQ(node.store(0).version(), 2u);
  EXPECT_EQ(node.store(0).object().data(), Bytes("abit"));
  EXPECT_FALSE(node.store(0).stale());
  EXPECT_FALSE(node.store(0).IsLocked());
}


// --- the outcome log -------------------------------------------------------

/// The largest outcome log and published checkpoint over the nodes of a
/// fault-free durable grid, after `writes` sequential partial writes
/// (coordinators taken in turn) and a quiet spell.
struct OutcomeLogSize {
  size_t outcomes = 0;
  size_t checkpoint_bytes = 0;
};

OutcomeLogSize AfterSequentialWrites(uint32_t writes) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 3;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.durability.enabled = true;
  opts.durability.checkpoint_threshold_bytes = 4096;
  Cluster cluster(opts);
  for (uint32_t i = 0; i < writes; ++i) {
    Result<WriteOutcome> w = cluster.WriteSync(
        i % opts.num_nodes, 0,
        Update::Partial(i % 32, {static_cast<uint8_t>(i)}));
    EXPECT_TRUE(w.ok()) << "write " << i << ": " << w.status().ToString();
  }
  cluster.RunFor(2000);
  EXPECT_TRUE(cluster.Quiescent());

  // The store opens its log first and its checkpoint second.
  constexpr store::SimDisk::FileId kCheckpointFile = 1;
  OutcomeLogSize size;
  for (NodeId n = 0; n < opts.num_nodes; ++n) {
    ReplicaNode& node = cluster.node(n);
    size.outcomes = std::max(size.outcomes, node.outcomes().size());
    size.checkpoint_bytes = std::max(
        size.checkpoint_bytes,
        node.durable_store()->disk().DurableImage(kCheckpointFile).size());
  }
  return size;
}

TEST(OutcomeLog, StaysBoundedAsWritesAccumulate) {
  // Without faults every phase 2 is acknowledged by all participants, so
  // each coordinator forgets its transaction at once, and a participant
  // keeps only the outcomes whose forget notice its coordinator has not
  // sent yet: with one operation at a time, at most the last transaction
  // of each other coordinator.
  constexpr size_t kMaxOutcomes = 9 - 1;
  // A checkpoint's Decide costs its owner (4 + 8 bytes) and outcome (1).
  constexpr size_t kDecideBytes = 13;
  const OutcomeLogSize short_run = AfterSequentialWrites(500);
  const OutcomeLogSize long_run = AfterSequentialWrites(2000);
  EXPECT_LE(short_run.outcomes, kMaxOutcomes);
  EXPECT_LE(long_run.outcomes, kMaxOutcomes);
  // Four times the transactions may change which outcomes a checkpoint
  // caught, not how many.
  ASSERT_GT(short_run.checkpoint_bytes, 0u) << "no checkpoint published";
  EXPECT_LE(long_run.checkpoint_bytes,
            short_run.checkpoint_bytes + kMaxOutcomes * kDecideBytes);
}

// --- the update log ---------------------------------------------------------

TEST(UpdateLog, LogStaysBoundedAsWritesAccumulate) {
  // 5000 16-byte patches of one 4 KiB object on a durable grid. Without
  // the bound every replica kept all of them; with it, each replica's log
  // costs less than a snapshot of its value (at most 141 entries of 29
  // bytes against 4109), on the live path and after a recovery replays
  // the log through the same Apply.
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 5;
  opts.initial_value = std::vector<uint8_t>(4096, 0);
  opts.durability.enabled = true;
  Cluster cluster(opts);
  constexpr uint32_t kWrites = 5000;
  for (uint32_t i = 0; i < kWrites; ++i) {
    Result<WriteOutcome> w = cluster.WriteSyncRetry(
        i % opts.num_nodes, 0,
        Update::Partial((i * 16) % 4096,
                        std::vector<uint8_t>(16, static_cast<uint8_t>(i))));
    ASSERT_TRUE(w.ok()) << "write " << i << ": " << w.status().ToString();
  }
  cluster.RunFor(2000);
  cluster.Crash(4);
  cluster.Recover(4);
  size_t longest = 0;
  for (NodeId n = 0; n < opts.num_nodes; ++n) {
    const storage::VersionedObject& object = cluster.node(n).store(0).object();
    EXPECT_LT(object.LogCharge(), object.SnapshotCharge()) << "node " << n;
    EXPECT_LE(object.LogSize(), 141u) << "node " << n;
    longest = std::max(longest, object.LogSize());
  }
  // The bound, not an empty log, is what holds the length down.
  EXPECT_EQ(longest, 141u);
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

}  // namespace
}  // namespace dcp::protocol
