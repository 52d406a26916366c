// Whole-stack determinism: two runs from the same seed must produce
// byte-identical results — histories, replica fingerprints, traffic
// counts. This is what makes every other seeded test in the suite (and
// every bench) reproducible; a stray std::rand(), iteration over an
// unordered container, or wall-clock read would break it here first.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/fault_injector.h"
#include "harness/nemesis.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

struct RunFingerprint {
  size_t writes;
  size_t reads;
  std::vector<storage::Version> write_versions;
  std::vector<double> write_times;
  std::vector<uint64_t> replica_fingerprints;
  uint64_t messages_sent;
  uint64_t events_executed;
};

RunFingerprint RunOnce(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.daemon_options.check_interval = 300;
  Cluster cluster(opts);

  harness::FaultInjector::Options fopts;
  fopts.mtbf = 6000;
  fopts.mttr = 900;
  fopts.seed = seed + 1;
  harness::FaultInjector faults(&cluster, fopts);

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(60000);
  workload.Stop();
  faults.Stop();

  RunFingerprint fp;
  fp.writes = cluster.history().writes().size();
  fp.reads = cluster.history().reads().size();
  for (const auto& w : cluster.history().writes()) {
    fp.write_versions.push_back(w.version);
    fp.write_times.push_back(w.decided_at);
  }
  for (uint32_t i = 0; i < 9; ++i) {
    fp.replica_fingerprints.push_back(
        cluster.node(i).store().object().Fingerprint());
  }
  fp.messages_sent = cluster.network().stats().total_sent;
  fp.events_executed = cluster.simulator().events_executed();
  return fp;
}

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  RunFingerprint a = RunOnce(4242);
  RunFingerprint b = RunOnce(4242);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.write_versions, b.write_versions);
  EXPECT_EQ(a.write_times, b.write_times);
  EXPECT_EQ(a.replica_fingerprints, b.replica_fingerprints);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Determinism, DifferentSeedsDiverge) {
  RunFingerprint a = RunOnce(1);
  RunFingerprint b = RunOnce(2);
  // Different fault/workload schedules must lead to different traffic.
  EXPECT_NE(a.messages_sent, b.messages_sent);
}

// --- nemesis determinism ---------------------------------------------------
// The adversarial harness must replay exactly from one seed: identical
// NetworkStats (including dropped/duplicated/reordered counters), an
// identical applied-fault schedule, and identical committed histories.

struct NemesisFingerprint {
  net::NetworkStats network_stats;
  std::vector<double> fault_times;
  std::vector<std::string> fault_descriptions;
  std::vector<storage::Version> write_versions;
  std::vector<double> write_times;
  uint64_t events_executed;
  uint64_t churn_failures;
};

NemesisFingerprint RunNemesisOnce(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.daemon_options.check_interval = 300;
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  Cluster cluster(opts);

  harness::Scenario scenario = harness::RandomScenario(seed + 17, 9, 10000);
  harness::Nemesis nemesis(&cluster, scenario);

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(10000);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(5000);

  NemesisFingerprint fp;
  fp.network_stats = cluster.network().stats();
  for (const auto& applied : nemesis.log()) {
    fp.fault_times.push_back(applied.at);
    fp.fault_descriptions.push_back(applied.description);
  }
  for (const auto& w : cluster.history().writes()) {
    fp.write_versions.push_back(w.version);
    fp.write_times.push_back(w.decided_at);
  }
  fp.events_executed = cluster.simulator().events_executed();
  fp.churn_failures =
      nemesis.churn() ? nemesis.churn()->failures_injected() : 0;
  return fp;
}

TEST(Determinism, NemesisIdenticalSeedsIdenticalRuns) {
  NemesisFingerprint a = RunNemesisOnce(1717);
  NemesisFingerprint b = RunNemesisOnce(1717);
  EXPECT_EQ(a.network_stats, b.network_stats);
  EXPECT_EQ(a.fault_times, b.fault_times);
  EXPECT_EQ(a.fault_descriptions, b.fault_descriptions);
  EXPECT_EQ(a.write_versions, b.write_versions);
  EXPECT_EQ(a.write_times, b.write_times);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.churn_failures, b.churn_failures);
  // The run must actually have exercised the fault machinery.
  EXPECT_GT(a.network_stats.total_dropped, 0u);
  EXPECT_FALSE(a.fault_descriptions.empty());
}

/// Serializes a fingerprint to bytes, with doubles in hexfloat so two
/// values compare equal iff they are bit-identical — a byte-level
/// contract rather than EXPECT_EQ's member-wise one.
std::string FingerprintBytes(const NemesisFingerprint& fp) {
  std::ostringstream os;
  os << std::hexfloat;
  const net::NetworkStats& ns = fp.network_stats;
  os << ns.total_sent << '|' << ns.total_delivered << '|' << ns.total_failed
     << '|' << ns.total_dropped << '|' << ns.total_duplicated << '|'
     << ns.total_reordered << '\n';
  for (const auto& [type, ts] : ns.by_type) {
    os << type << ':' << ts.sent << ',' << ts.delivered << ',' << ts.failed
       << ',' << ts.dropped << ',' << ts.duplicated << '\n';
  }
  for (const auto& [node, n] : ns.delivered_to) os << node << '=' << n << '\n';
  for (double t : fp.fault_times) os << t << '\n';
  for (const std::string& d : fp.fault_descriptions) os << d << '\n';
  for (storage::Version v : fp.write_versions) os << v << '\n';
  for (double t : fp.write_times) os << t << '\n';
  os << fp.events_executed << '|' << fp.churn_failures << '\n';
  return std::move(os).str();
}

TEST(Determinism, NemesisFingerprintBytesAreIdentical) {
  std::string a = FingerprintBytes(RunNemesisOnce(909));
  std::string b = FingerprintBytes(RunNemesisOnce(909));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "same-seed fingerprints differ:\n"
                      << a << "---- vs ----\n"
                      << b;
}

TEST(Determinism, NemesisDifferentSeedsDiverge) {
  NemesisFingerprint a = RunNemesisOnce(21);
  NemesisFingerprint b = RunNemesisOnce(22);
  EXPECT_NE(a.network_stats.total_sent, b.network_stats.total_sent);
  EXPECT_NE(a.fault_descriptions, b.fault_descriptions);
}

// --- sharded determinism ---------------------------------------------------
// A sharded Cluster with the multiplexed epoch daemons on, through a crash
// and recovery, folded into one 64-bit digest: simulator events executed,
// every home replica's (version, epoch number, epoch list, data
// fingerprint) and the network's delivered-message count.

uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t RunShardedOnce(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 7;
  opts.num_objects = 64;
  opts.sharded = true;
  opts.replication_factor = 5;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(8, 0);
  opts.start_epoch_daemons = true;
  opts.daemon_options.check_interval = 300;
  Cluster cluster(opts);
  cluster.RunFor(500);
  for (uint32_t i = 0; i < 192; ++i) {
    if (i == 60) cluster.Crash(3);
    if (i == 130) cluster.Recover(3);
    storage::ObjectId o = i % 64;
    if (i % 3 == 2) {
      (void)cluster.ReadSyncRetry(cluster.RouteCoordinator(o), o, 10);
    } else {
      (void)cluster.WriteSyncRetry(
          cluster.RouteCoordinator(o), o,
          storage::Update::Partial(i % 8, {static_cast<uint8_t>(i + 1)}), 10);
    }
  }
  cluster.RunFor(4000);
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());

  uint64_t h = 0xCBF29CE484222325ull;
  h = Fold(h, cluster.simulator().events_executed());
  for (storage::ObjectId o = 0; o < 64; ++o) {
    for (NodeId n : cluster.HomeNodes(o)) {
      const storage::ReplicaStore& s = cluster.node(n).store(o);
      h = Fold(h, s.version());
      h = Fold(h, s.epoch_number());
      for (NodeId m : s.epoch_list()) h = Fold(h, m);
      h = Fold(h, s.object().Fingerprint());
    }
  }
  return Fold(h, cluster.network().stats().total_delivered);
}

TEST(Determinism, ShardedIdenticalSeedsIdenticalRuns) {
  EXPECT_EQ(RunShardedOnce(2025), RunShardedOnce(2025));
}

TEST(Determinism, ShardedFingerprintIsPinned) {
  // A change here means seeded sharded runs no longer replay
  // byte-identically across builds.
  EXPECT_EQ(RunShardedOnce(2025), 0x1e1029d3b89685c7ull);
}

TEST(Determinism, ScenarioGenerationIsPureFunctionOfSeed) {
  harness::Scenario a = harness::RandomScenario(9, 9, 20000);
  harness::Scenario b = harness::RandomScenario(9, 9, 20000);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].Describe(), b.events[i].Describe());
    EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
    EXPECT_DOUBLE_EQ(a.events[i].duration, b.events[i].duration);
  }
  EXPECT_EQ(a.churn_seed, b.churn_seed);
}

}  // namespace
}  // namespace dcp::protocol
