// The persistent/volatile split of Section 4 across Crash()/Recover():
// the stale flag, desired version, object contents+version and the epoch
// record survive a crash; the replica lock and the locked-for-propagation
// bit do not. Checked in both persistence models — durability off (the
// paper's ideal persistent store: RAM survives untouched) and durability
// on (RAM is discarded and recovery must rebuild everything from the
// checkpoint + WAL, so state that never reached the disk is gone).

#include <gtest/gtest.h>

#include <vector>

#include "protocol/cluster.h"
#include "protocol/redo.h"
#include "storage/replica_store.h"

namespace dcp::protocol {
namespace {

using storage::LockOwner;
using storage::ReplicaStore;
using storage::Update;

// --- storage-level contract -----------------------------------------------

TEST(ReplicaStoreCrash, VolatileStateEvaporatesPersistentSurvives) {
  ReplicaStore store(2, NodeSet::Universe(5), {0x11, 0x22});
  store.object().Apply(Update::Total({0xAA}));
  store.MarkStale(7);
  store.SetEpoch(3, NodeSet::FromVector({0, 1, 2}));

  LockOwner writer{1, 42};
  ASSERT_TRUE(store.Lock(writer, /*exclusive=*/true).ok());
  store.set_locked_for_propagation(true);
  ASSERT_TRUE(store.IsLocked());

  store.Crash();

  // Volatile: gone.
  EXPECT_FALSE(store.IsLocked());
  EXPECT_FALSE(store.HoldsLock(writer));
  EXPECT_FALSE(store.locked_for_propagation());

  // Persistent: intact (fail-stop model).
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.object().data(), std::vector<uint8_t>{0xAA});
  EXPECT_TRUE(store.stale());
  EXPECT_EQ(store.desired_version(), 7u);
  EXPECT_EQ(store.epoch_number(), 3u);
  EXPECT_EQ(store.epoch_list(), NodeSet::FromVector({0, 1, 2}));
}

TEST(ReplicaStoreCrash, RestorePersistentOverwritesWholesale) {
  ReplicaStore store(0, NodeSet::Universe(3), {0x01});
  store.Crash();

  storage::VersionedObject recovered({0x0F});
  recovered.InstallSnapshot(9, Update::Total({0xBE, 0xEF}));
  store.RestorePersistent(std::move(recovered), /*stale=*/true,
                          /*desired_version=*/12);
  EXPECT_EQ(store.version(), 9u);
  EXPECT_EQ(store.object().data(), (std::vector<uint8_t>{0xBE, 0xEF}));
  EXPECT_TRUE(store.stale());
  EXPECT_EQ(store.desired_version(), 12u);
}

// --- node-level contract, both persistence models -------------------------

ClusterOptions BaseOptions(bool durable, uint64_t seed = 11) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = seed;
  opts.initial_value = {0x00, 0x00, 0x00, 0x00};
  if (durable) {
    opts.durability.enabled = true;
    // Deterministic worst case: every crash drops the whole unsynced
    // tail, so anything not behind a barrier is provably lost.
    opts.durability.crash.tear_probability = 0;
  }
  return opts;
}

class NodeCrashTest : public ::testing::TestWithParam<bool> {};

TEST_P(NodeCrashTest, CommittedWriteSurvivesCrashRecover) {
  const bool durable = GetParam();
  Cluster cluster(BaseOptions(durable));

  Result<WriteOutcome> w =
      cluster.WriteSync(0, Update::Total({0xCA, 0xFE}));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const storage::Version committed = w->version;

  // A participant holds a (volatile) lock artifact? Give it one
  // explicitly, plus the propagation bit, to pin down the split.
  ReplicaNode& victim = cluster.node(1);
  LockOwner probe{4, 9999};
  ASSERT_TRUE(victim.store().Lock(probe, /*exclusive=*/true).ok());
  victim.store().set_locked_for_propagation(true);

  cluster.Crash(1);
  cluster.RunFor(50);
  cluster.Recover(1);
  cluster.RunFor(200);

  EXPECT_FALSE(victim.store().IsLocked());
  EXPECT_FALSE(victim.store().locked_for_propagation());
  EXPECT_GE(victim.store().version(), committed);
  if (durable) {
    // Recovery actually went through the engine.
    ASSERT_NE(victim.durable_store(), nullptr);
    EXPECT_GE(victim.durable_store()->last_recovery().replayed_records, 1u);
  } else {
    EXPECT_EQ(victim.durable_store(), nullptr);
  }

  // The cluster keeps working and the recovered node's data reconverges.
  Result<ReadOutcome> r = cluster.ReadSyncRetry(1, 0, 10);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->version, committed);
}

TEST_P(NodeCrashTest, EpochRecordSurvivesCrashRecover) {
  const bool durable = GetParam();
  Cluster cluster(BaseOptions(durable, 23));

  // Force an epoch change past node 4, then bounce a surviving member.
  cluster.Crash(4);
  cluster.RunFor(50);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  const storage::EpochNumber installed = cluster.node(0).epoch().number;
  ASSERT_GT(installed, 0u);
  ASSERT_FALSE(cluster.node(0).epoch().list.Contains(4));

  cluster.Crash(0);
  cluster.RunFor(50);
  cluster.Recover(0);
  cluster.RunFor(200);

  EXPECT_EQ(cluster.node(0).epoch().number, installed);
  EXPECT_FALSE(cluster.node(0).epoch().list.Contains(4));
}

INSTANTIATE_TEST_SUITE_P(BothPersistenceModels, NodeCrashTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DurabilityOn"
                                             : "DurabilityOff";
                         });

// --- where the two models must differ -------------------------------------

TEST(NodeCrashSplit, DurabilityOffRamIsThePersistentStore) {
  // The ideal-persistence model: even state that never touched any log
  // survives, because Crash() only clears the volatile slice.
  Cluster cluster(BaseOptions(/*durable=*/false));
  cluster.node(2).store().MarkStale(41);

  cluster.Crash(2);
  cluster.RunFor(20);
  cluster.Recover(2);

  EXPECT_TRUE(cluster.node(2).store().stale());
  EXPECT_EQ(cluster.node(2).store().desired_version(), 41u);
}

TEST(NodeCrashSplit, DurabilityOnRecoveryRebuildsFromDiskOnly) {
  // The same mutation applied behind the WAL's back must NOT survive:
  // recovery discards RAM and replays the (empty) log over the birth
  // state. This is the "disk is the truth" contract the nemesis suite
  // leans on.
  Cluster cluster(BaseOptions(/*durable=*/true));
  cluster.node(2).store().MarkStale(41);

  cluster.Crash(2);
  cluster.RunFor(20);
  cluster.Recover(2);

  EXPECT_FALSE(cluster.node(2).store().stale());
  EXPECT_EQ(cluster.node(2).store().desired_version(), 0u);
  EXPECT_EQ(cluster.node(2).store().version(), 0u);
}

TEST(NodeCrashSplit, DurabilityOnUnsyncedEffectsAreLostCleanly) {
  // Log an update but crash before any barrier completes: the record
  // dies with the tail, and the node recovers to its pre-update state
  // without tripping any replay machinery.
  Cluster cluster(BaseOptions(/*durable=*/true));
  ReplicaNode& victim = cluster.node(3);
  ASSERT_NE(victim.durable_store(), nullptr);

  redo::Append(*victim.durable_store(),
               redo::Update{0, 1, Update::Total({0x99})});
  victim.store().object().Apply(Update::Total({0x99}));  // RAM-side apply.
  // No Commit(), no sim time for the lazy flush: nothing durable.
  cluster.Crash(3);
  cluster.Recover(3);

  EXPECT_EQ(victim.store().version(), 0u);
  EXPECT_EQ(victim.durable_store()->last_recovery().replayed_records, 0u);
}

}  // namespace
}  // namespace dcp::protocol
