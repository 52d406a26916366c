// Crash-point storms against the durable storage engine. The nemesis
// repeatedly kills nodes *while they hold prepared-but-undecided 2PC
// actions* (plus ordinary crash storms), with every crash dropping or
// tearing the unsynced WAL tail. After healing, recovery must have
// rebuilt every node purely from checkpoint + log, and the invariants
// the engine exists for must hold: no committed (client-acked) version
// lost, no torn record applied, epochs never regress across recoveries.
// Plus determinism: durability-on runs replay byte-identically from one
// seed, and the scenario generator is a pure function of its seed.

#include "harness/nemesis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::harness {
namespace {

using protocol::Cluster;
using protocol::ClusterOptions;
using protocol::CoterieKind;

constexpr sim::Time kHorizon = 12000;

ClusterOptions DurableOptions(CoterieKind kind, uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = kind;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  // The standing message-level fault model: the crash points compose
  // with lossy, duplicating, reordering links.
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.fault_model.global.reorder_spike = 20.0;
  // The subject under test: every Crash() now hits a simulated disk,
  // and half the crashes tear the unsynced tail mid-record.
  opts.durability.enabled = true;
  opts.durability.crash.tear_probability = 0.5;
  // Small threshold so long runs also exercise checkpoint + truncation
  // interleaved with the crash storm.
  opts.durability.checkpoint_threshold_bytes = 4096;
  return opts;
}

bool RunToQuiescence(Cluster& cluster, sim::Time budget) {
  const sim::Time slice = 500;
  for (sim::Time spent = 0; spent < budget; spent += slice) {
    cluster.RunFor(slice);
    if (cluster.Quiescent()) return true;
  }
  return cluster.Quiescent();
}

/// Highest version the cluster ever acknowledged to a client for
/// `object`: the durability obligation, since every version in here was
/// promised.
storage::Version MaxAckedVersion(Cluster& cluster, storage::ObjectId object) {
  storage::Version max_acked = 0;
  for (const analysis::ClientOp& op : cluster.history().ops()) {
    if (op.object == object && op.kind == analysis::ClientOp::Kind::kWrite &&
        op.outcome == analysis::ClientOp::Outcome::kOk) {
      max_acked = std::max(max_acked, op.version);
    }
  }
  return max_acked;
}

class CrashPointSweep
    : public ::testing::TestWithParam<std::tuple<CoterieKind, int>> {};

TEST_P(CrashPointSweep, NoCommittedVersionLostAndInvariantsHold) {
  auto [kind, seed] = GetParam();
  Cluster cluster(DurableOptions(kind, uint64_t(seed)));

  Scenario scenario = CrashPointScenario(uint64_t(seed) * 104729 + 7,
                                         cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = uint64_t(seed) + 1000;
  wopts.client_history = &history;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();

  ASSERT_TRUE(RunToQuiescence(cluster, 20000))
      << "cluster failed to quiesce after the crash storm (seed " << seed
      << ")";

  // The standard four checkers (Lemma 1, replica agreement, 1SR).
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok())
      << cluster.CheckEpochInvariants().ToString();
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok())
      << cluster.CheckReplicaConsistency().ToString();
  EXPECT_TRUE(cluster.CheckHistory().ok())
      << cluster.CheckHistory().ToString();
  EXPECT_TRUE(cluster.Quiescent());

  // End-to-end client-consistency verdict over the crash storm: crashes
  // that tear WAL tails and rebuild nodes from disk must never surface
  // to clients as a non-linearizable read or a lost acked write.
  analysis::AuditOptions aopts;
  aopts.mode = analysis::AuditMode::kLinearizable;
  aopts.initial_value = std::vector<uint8_t>(32, 0);
  analysis::AuditVerdict verdict = analysis::AuditHistory(history, aopts);
  EXPECT_TRUE(verdict.ok) << verdict.ToString();
  EXPECT_FALSE(verdict.inconclusive) << verdict.ToString();

  // The durability invariant: every version acked to a client survived
  // the storm on at least one current replica, and is readable.
  const storage::Version max_acked = MaxAckedVersion(cluster, 0);
  storage::Version max_replica = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    if (!cluster.node(i).store().stale()) {
      max_replica = std::max(max_replica, cluster.node(i).store().version());
    }
  }
  EXPECT_GE(max_replica, max_acked)
      << "a client-acked version vanished from every replica (seed " << seed
      << ")";
  auto r = cluster.ReadSyncRetry(0, 0, 20);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->version, max_acked);

  // The run must actually have exercised the engine: nodes crashed and
  // recovered from disk under way.
  EXPECT_GT(nemesis.faults_applied(), 0u);
  EXPECT_GT(cluster.metrics().counter("disk.crashes")->value(), 0u);
  EXPECT_GT(cluster.metrics().counter("store.recoveries")->value(), 0u);
  EXPECT_GT(cluster.metrics().counter("wal.records")->value(), 0u);
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<CoterieKind, int>>& info) {
  auto [kind, seed] = info.param;
  std::string k = kind == CoterieKind::kGrid ? "Grid" : "Majority";
  return k + "Seed" + std::to_string(seed);
}

// 2 coteries x 20 seeds = 40 distinct crash-point storms.
INSTANTIATE_TEST_SUITE_P(
    Seeds, CrashPointSweep,
    ::testing::Combine(::testing::Values(CoterieKind::kGrid,
                                         CoterieKind::kMajority),
                       ::testing::Range(1, 21)),
    SweepName);

// --- epoch monotonicity across recoveries ---------------------------------

// A node's recovered epoch can never regress: the WAL is append-only and
// replay installs epochs monotonically, so each recovery observes an
// epoch >= the previous recovery's. Driven deterministically: epoch
// changes advance while one node is bounced over and over.
TEST(DurabilityEpochs, RecoveredEpochNeverRegresses) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 31;
  opts.initial_value = std::vector<uint8_t>(8, 0);
  opts.durability.enabled = true;
  Cluster cluster(opts);

  storage::EpochNumber last_recovered = 0;
  for (int round = 0; round < 5; ++round) {
    // Advance the epoch: exclude node 4, then readmit it.
    cluster.Crash(4);
    cluster.RunFor(50);
    ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
    cluster.Recover(4);
    cluster.RunFor(50);
    ASSERT_TRUE(cluster.CheckEpochSync(0).ok());

    // Bounce node 1 and check its post-recovery (disk-rebuilt) epoch.
    cluster.Crash(1);
    cluster.RunFor(30);
    cluster.Recover(1);
    storage::EpochNumber recovered = cluster.node(1).epoch().number;
    EXPECT_GE(recovered, last_recovered) << "round " << round;
    last_recovered = recovered;
    cluster.RunFor(200);
  }
  EXPECT_GT(last_recovered, 0u);
}

// --- determinism ----------------------------------------------------------

struct DurableFingerprint {
  std::string metrics_json;  ///< The whole registry: every "net.*" count.
  std::vector<std::string> fault_descriptions;
  std::vector<storage::Version> write_versions;
  std::vector<double> write_times;
  std::vector<uint64_t> replica_fingerprints;
  uint64_t events_executed = 0;
  uint64_t disk_crashes = 0;
  uint64_t torn_tails = 0;
  uint64_t recoveries = 0;
  uint64_t recovered_records = 0;
  uint64_t wal_records = 0;
  uint64_t checkpoints = 0;
};

DurableFingerprint RunDurableOnce(uint64_t seed, bool durable) {
  ClusterOptions opts = DurableOptions(CoterieKind::kGrid, seed);
  opts.durability.enabled = durable;
  Cluster cluster(opts);

  Scenario scenario =
      CrashPointScenario(seed + 17, cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);

  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(8000);

  DurableFingerprint fp;
  fp.metrics_json = cluster.metrics().ToJson();
  for (const auto& applied : nemesis.log()) {
    fp.fault_descriptions.push_back(applied.description);
  }
  for (const analysis::ClientOp& op : cluster.history().ops()) {
    if (op.kind == analysis::ClientOp::Kind::kWrite &&
        op.outcome == analysis::ClientOp::Outcome::kOk) {
      fp.write_versions.push_back(op.version);
      fp.write_times.push_back(op.returned_at);
    }
  }
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    fp.replica_fingerprints.push_back(
        cluster.node(i).store().object().Fingerprint());
  }
  fp.events_executed = cluster.simulator().events_executed();
  fp.disk_crashes = cluster.metrics().counter("disk.crashes")->value();
  fp.torn_tails = cluster.metrics().counter("disk.torn_tails")->value();
  fp.recoveries = cluster.metrics().counter("store.recoveries")->value();
  fp.recovered_records =
      cluster.metrics().counter("store.recovered_records")->value();
  fp.wal_records = cluster.metrics().counter("wal.records")->value();
  fp.checkpoints = cluster.metrics().counter("store.checkpoints")->value();
  return fp;
}

TEST(DurabilityDeterminism, DurableRunsReplayIdentically) {
  DurableFingerprint a = RunDurableOnce(4242, /*durable=*/true);
  DurableFingerprint b = RunDurableOnce(4242, /*durable=*/true);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.fault_descriptions, b.fault_descriptions);
  EXPECT_EQ(a.write_versions, b.write_versions);
  EXPECT_EQ(a.write_times, b.write_times);
  EXPECT_EQ(a.replica_fingerprints, b.replica_fingerprints);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.disk_crashes, b.disk_crashes);
  EXPECT_EQ(a.torn_tails, b.torn_tails);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovered_records, b.recovered_records);
  EXPECT_EQ(a.wal_records, b.wal_records);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  // The runs actually crashed through the disk model.
  EXPECT_GT(a.disk_crashes, 0u);
  EXPECT_GT(a.recoveries, 0u);
}

TEST(DurabilityDeterminism, DurabilityOffRunsReplayIdenticallyToo) {
  // The crash-point scenario under the ideal-persistence model: same
  // seed, same bytes — and no disk/WAL/recovery activity at all.
  DurableFingerprint a = RunDurableOnce(909, /*durable=*/false);
  DurableFingerprint b = RunDurableOnce(909, /*durable=*/false);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.fault_descriptions, b.fault_descriptions);
  EXPECT_EQ(a.write_versions, b.write_versions);
  EXPECT_EQ(a.write_times, b.write_times);
  EXPECT_EQ(a.replica_fingerprints, b.replica_fingerprints);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.disk_crashes, 0u);
  EXPECT_EQ(a.recoveries, 0u);
  EXPECT_EQ(a.wal_records, 0u);
}

TEST(DurabilityDeterminism, CrashPointScenarioIsPureFunctionOfSeed) {
  Scenario a = CrashPointScenario(9, 9, 20000);
  Scenario b = CrashPointScenario(9, 9, 20000);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_FALSE(a.events.empty());
  bool saw_staged = false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].Describe(), b.events[i].Describe());
    EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
    EXPECT_DOUBLE_EQ(a.events[i].duration, b.events[i].duration);
    if (a.events[i].kind == NemesisEvent::Kind::kStagedCrash) {
      saw_staged = true;
    }
  }
  EXPECT_TRUE(saw_staged) << "a crash-point scenario with no staged "
                             "crashes exercises nothing new";
  EXPECT_FALSE(a.churn);  // Crash timing stays with the staged machinery.
}

}  // namespace
}  // namespace dcp::harness
