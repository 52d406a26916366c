// Whole-stack determinism: two runs from the same seed must produce
// byte-identical results — histories, replica fingerprints, traffic
// counts. This is what makes every other seeded test in the suite (and
// every bench) reproducible; a stray std::rand(), iteration over an
// unordered container, or wall-clock read would break it here first.
//
// The *IsPinned cases compare digests of seeded runs (group mode with
// epoch daemons and churn, the message nemesis, the durable crash-point
// nemesis, sharded mode with muxes, the baseline stacks under crashes)
// against constants. They catch what a same-build comparison cannot: a
// change that alters a seeded schedule across builds. Each pinned run of
// the paper's protocol also re-forms at least one epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/client_history.h"
#include "baseline/accessible_copies.h"
#include "harness/fault_injector.h"
#include "harness/nemesis.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

// FNV-1a folds for the pinned digests below.
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t FoldDouble(uint64_t h, double v) {
  return Fold(h, std::bit_cast<uint64_t>(v));
}

uint64_t FoldBytes(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// The writes a client history saw acknowledged, as (version, ack time)
/// pairs in invocation order.
std::vector<std::pair<storage::Version, double>> AckedWrites(
    const analysis::ClientHistory& history) {
  std::vector<std::pair<storage::Version, double>> acked;
  for (const analysis::ClientOp& op : history.ops()) {
    if (op.kind == analysis::ClientOp::Kind::kWrite &&
        op.outcome == analysis::ClientOp::Outcome::kOk) {
      acked.push_back({op.version, op.returned_at});
    }
  }
  return acked;
}

/// Acknowledged reads in a client history.
size_t AckedReads(const analysis::ClientHistory& history) {
  return static_cast<size_t>(std::count_if(
      history.ops().begin(), history.ops().end(),
      [](const analysis::ClientOp& op) {
        return op.kind == analysis::ClientOp::Kind::kRead &&
               op.outcome == analysis::ClientOp::Outcome::kOk;
      }));
}

struct RunFingerprint {
  size_t writes;
  size_t reads;
  std::vector<storage::Version> write_versions;
  std::vector<double> write_times;
  std::vector<uint64_t> replica_fingerprints;
  uint64_t messages_sent;
  uint64_t events_executed;
  std::vector<storage::EpochNumber> epochs;  ///< Per node, at the end.
};

/// One seeded group-mode run. The workload records into a client history
/// unless `record` is false; the acked writes and reads it saw are the
/// history part of the fingerprint.
RunFingerprint RunOnce(uint64_t seed, bool record = true) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  Cluster cluster(opts);

  harness::FaultInjector::Options fopts;
  fopts.mtbf = 6000;
  fopts.mttr = 900;
  fopts.seed = seed + 1;
  harness::FaultInjector faults(&cluster, fopts);

  analysis::ClientHistory history;
  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  if (record) wopts.client_history = &history;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(60000);
  workload.Stop();
  faults.Stop();

  RunFingerprint fp;
  const auto acked = AckedWrites(history);
  fp.writes = acked.size();
  fp.reads = AckedReads(history);
  for (const auto& [version, at] : acked) {
    fp.write_versions.push_back(version);
    fp.write_times.push_back(at);
  }
  for (uint32_t i = 0; i < 9; ++i) {
    fp.replica_fingerprints.push_back(
        cluster.node(i).store().object().Fingerprint());
  }
  fp.messages_sent = cluster.metrics().CounterValue("net.sent");
  fp.events_executed = cluster.simulator().events_executed();
  for (uint32_t i = 0; i < 9; ++i) {
    fp.epochs.push_back(cluster.node(i).store().epoch_number());
  }
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

// The pins below fold what a client history attached to the workload saw.
// Recording draws no randomness and schedules nothing, so a recorded run
// replays the unrecorded one exactly.
TEST(Determinism, ClientHistoryDoesNotPerturbRuns) {
  RunFingerprint recorded = RunOnce(4242);
  RunFingerprint bare = RunOnce(4242, /*record=*/false);
  EXPECT_GT(recorded.writes, 0u);
  EXPECT_EQ(bare.writes, 0u);
  EXPECT_EQ(recorded.replica_fingerprints, bare.replica_fingerprints);
  EXPECT_EQ(recorded.messages_sent, bare.messages_sent);
  EXPECT_EQ(recorded.events_executed, bare.events_executed);
  EXPECT_EQ(recorded.epochs, bare.epochs);
}

TEST(Determinism, DifferentSeedsDiverge) {
  RunFingerprint a = RunOnce(1);
  RunFingerprint b = RunOnce(2);
  // Different fault/workload schedules must lead to different traffic.
  EXPECT_NE(a.messages_sent, b.messages_sent);
}

uint64_t Digest(const RunFingerprint& fp) {
  uint64_t h = Fold(Fold(kFnvBasis, fp.writes), fp.reads);
  for (storage::Version v : fp.write_versions) h = Fold(h, v);
  for (double t : fp.write_times) h = FoldDouble(h, t);
  for (uint64_t f : fp.replica_fingerprints) h = Fold(h, f);
  h = Fold(Fold(h, fp.messages_sent), fp.events_executed);
  for (storage::EpochNumber e : fp.epochs) h = Fold(h, e);
  return h;
}

TEST(Determinism, GroupFingerprintIsPinned) {
  // A change here means seeded group-mode runs (epoch daemons, churn,
  // epoch re-formation) no longer replay byte-identically across builds.
  RunFingerprint fp = RunOnce(4242);
  EXPECT_GT(*std::max_element(fp.epochs.begin(), fp.epochs.end()), 0u)
      << "the pinned run must re-form an epoch";
  EXPECT_EQ(Digest(fp), 0xed27b8a8a3476881ull);
}

// --- nemesis determinism ---------------------------------------------------
// The adversarial harness must replay exactly from one seed: identical
// "net.*" counters (including dropped/duplicated/reordered), an identical
// applied-fault schedule, and identical acknowledged histories.

struct NemesisFingerprint {
  std::map<std::string, uint64_t> net;  ///< Every "net.*" counter.
  std::vector<double> fault_times;
  std::vector<std::string> fault_descriptions;
  std::vector<storage::Version> write_versions;
  std::vector<double> write_times;
  uint64_t events_executed;
  uint64_t churn_failures;
  storage::EpochNumber max_epoch;
};

NemesisFingerprint RunNemesisOnce(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  Cluster cluster(opts);

  harness::Scenario scenario = harness::RandomScenario(seed + 17, 9, 10000);
  harness::Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  wopts.client_history = &history;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(10000);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(5000);

  NemesisFingerprint fp;
  for (const auto& [name, counter] : cluster.metrics().counters()) {
    if (name.rfind("net.", 0) == 0) fp.net.emplace(name, counter->value());
  }
  for (const auto& applied : nemesis.log()) {
    fp.fault_times.push_back(applied.at);
    fp.fault_descriptions.push_back(applied.description);
  }
  for (const auto& [version, at] : AckedWrites(history)) {
    fp.write_versions.push_back(version);
    fp.write_times.push_back(at);
  }
  fp.events_executed = cluster.simulator().events_executed();
  fp.churn_failures =
      nemesis.churn() ? nemesis.churn()->failures_injected() : 0;
  fp.max_epoch = 0;
  for (uint32_t i = 0; i < 9; ++i) {
    fp.max_epoch =
        std::max(fp.max_epoch, cluster.node(i).store().epoch_number());
  }
  return fp;
}

TEST(Determinism, NemesisIdenticalSeedsIdenticalRuns) {
  NemesisFingerprint a = RunNemesisOnce(1717);
  NemesisFingerprint b = RunNemesisOnce(1717);
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.fault_times, b.fault_times);
  EXPECT_EQ(a.fault_descriptions, b.fault_descriptions);
  EXPECT_EQ(a.write_versions, b.write_versions);
  EXPECT_EQ(a.write_times, b.write_times);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.churn_failures, b.churn_failures);
  // The run must actually have exercised the fault machinery.
  EXPECT_GT(a.net.at("net.dropped"), 0u);
  EXPECT_FALSE(a.fault_descriptions.empty());
}

/// Serializes a fingerprint to bytes, with doubles in hexfloat so two
/// values compare equal iff they are bit-identical — a byte-level
/// contract rather than EXPECT_EQ's member-wise one.
std::string FingerprintBytes(const NemesisFingerprint& fp) {
  std::ostringstream os;
  os << std::hexfloat;
  // The network counters, in the layout the pinned digest has always
  // hashed: the totals, then per-type rows by type name and per-node
  // delivery counts by node id, each skipping all-zero entries.
  os << fp.net.at("net.sent") << '|' << fp.net.at("net.delivered") << '|'
     << fp.net.at("net.failed") << '|' << fp.net.at("net.dropped") << '|'
     << fp.net.at("net.duplicated") << '|' << fp.net.at("net.reordered")
     << '\n';
  const std::string kType = "net.type.", kTo = "net.delivered_to.";
  std::map<std::string, std::map<std::string, uint64_t>> by_type;
  std::map<NodeId, uint64_t> delivered_to;
  for (const auto& [name, value] : fp.net) {
    if (name.rfind(kType, 0) == 0) {
      // "net.type.<type>.<field>": a type name may contain dots
      // ("alpha.reply"), a field never does.
      const size_t dot = name.rfind('.');
      by_type[name.substr(kType.size(), dot - kType.size())]
             [name.substr(dot + 1)] = value;
    } else if (name.rfind(kTo, 0) == 0 && value != 0) {
      delivered_to.emplace(
          static_cast<NodeId>(std::stoul(name.substr(kTo.size()))), value);
    }
  }
  for (const auto& [type, f] : by_type) {
    if (std::all_of(f.begin(), f.end(),
                    [](const auto& field) { return field.second == 0; })) {
      continue;
    }
    os << type << ':' << f.at("sent") << ',' << f.at("delivered") << ','
       << f.at("failed") << ',' << f.at("dropped") << ','
       << f.at("duplicated") << '\n';
  }
  for (const auto& [node, n] : delivered_to) os << node << '=' << n << '\n';
  for (double t : fp.fault_times) os << t << '\n';
  for (const std::string& d : fp.fault_descriptions) os << d << '\n';
  for (storage::Version v : fp.write_versions) os << v << '\n';
  for (double t : fp.write_times) os << t << '\n';
  os << fp.events_executed << '|' << fp.churn_failures << '|'
     << fp.max_epoch << '\n';
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
  EXPECT_NE(a.net.at("net.sent"), b.net.at("net.sent"));
  EXPECT_NE(a.fault_descriptions, b.fault_descriptions);
}

TEST(Determinism, NemesisFingerprintIsPinned) {
  // Not seed 909 (the byte-identity test's): its run re-forms no epoch,
  // and the pin must cover one.
  NemesisFingerprint fp = RunNemesisOnce(910);
  EXPECT_GT(fp.max_epoch, 0u) << "the pinned run must re-form an epoch";
  EXPECT_EQ(FoldBytes(kFnvBasis, FingerprintBytes(fp)), 0x637f6773e2ed7313ull);
}

// --- durable determinism ---------------------------------------------------
// The crash-point nemesis over the WAL engine (simulated disk, torn tails,
// checkpoints), folded into one digest: events executed, every write the
// workload saw acknowledged (version and ack time), each node's replica and epoch, the engine's counters and the
// delivered-message count.

uint64_t RunDurableOnce(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.durability.enabled = true;
  opts.durability.crash.tear_probability = 0.5;
  opts.durability.checkpoint_threshold_bytes = 4096;
  Cluster cluster(opts);

  harness::Nemesis nemesis(
      &cluster, harness::CrashPointScenario(seed + 17, 9, 12000));
  analysis::ClientHistory history;
  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  wopts.client_history = &history;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(12000);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(8000);

  uint64_t h = Fold(kFnvBasis, cluster.simulator().events_executed());
  for (const auto& [version, at] : AckedWrites(history)) {
    h = FoldDouble(Fold(h, version), at);
  }
  storage::EpochNumber max_epoch = 0;
  for (uint32_t i = 0; i < 9; ++i) {
    const storage::ReplicaStore& s = cluster.node(i).store();
    max_epoch = std::max(max_epoch, s.epoch_number());
    h = Fold(Fold(h, s.version()), s.epoch_number());
    for (NodeId m : s.epoch_list()) h = Fold(h, m);
    h = Fold(h, s.object().Fingerprint());
  }
  EXPECT_GT(max_epoch, 0u) << "the pinned run must re-form an epoch";
  EXPECT_GT(cluster.metrics().counter("store.recoveries")->value(), 0u);
  for (const char* name : {"disk.crashes", "disk.torn_tails", "wal.records",
                           "store.recoveries", "store.recovered_records",
                           "store.checkpoints"}) {
    h = Fold(h, cluster.metrics().counter(name)->value());
  }
  return Fold(h, cluster.metrics().CounterValue("net.delivered"));
}

TEST(Determinism, DurableFingerprintIsPinned) {
  EXPECT_EQ(RunDurableOnce(4242), 0xfe1f322e665b17beull);
}

// --- sharded determinism ---------------------------------------------------
// A sharded Cluster with the multiplexed epoch daemons on, through a crash
// and recovery, folded into one 64-bit digest: simulator events executed,
// every home replica's (version, epoch number, epoch list, data
// fingerprint) and the network's delivered-message count.

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
  opts.epoch_check_interval = 300;
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

  uint64_t h = kFnvBasis;
  h = Fold(h, cluster.simulator().events_executed());
  storage::EpochNumber max_epoch = 0;
  for (storage::ObjectId o = 0; o < 64; ++o) {
    for (NodeId n : cluster.HomeNodes(o)) {
      const storage::ReplicaStore& s = cluster.node(n).store(o);
      max_epoch = std::max(max_epoch, s.epoch_number());
      h = Fold(h, s.version());
      h = Fold(h, s.epoch_number());
      for (NodeId m : s.epoch_list()) h = Fold(h, m);
      h = Fold(h, s.object().Fingerprint());
    }
  }
  EXPECT_GT(max_epoch, 0u) << "the pinned run must re-form a lineage";
  return Fold(h, cluster.metrics().CounterValue("net.delivered"));
}

TEST(Determinism, ShardedIdenticalSeedsIdenticalRuns) {
  EXPECT_EQ(RunShardedOnce(2025), RunShardedOnce(2025));
}

TEST(Determinism, ShardedFingerprintIsPinned) {
  // A change here means seeded sharded runs no longer replay
  // byte-identically across builds.
  EXPECT_EQ(RunShardedOnce(2025), 0xd5fb64d280deaf6dull);
}

// --- baseline determinism --------------------------------------------------
// One baseline stack under crash faults (accessible copies also runs a view
// change from a rotating live node every 500 time units), folded into one
// digest: every registry counter, the view changes' outcomes, simulator
// events executed, and each replica's fingerprint, version and epoch.

uint64_t RunBaselineOnce(harness::Stack stack, CoterieKind coterie,
                         uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = coterie;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  Cluster cluster(opts);

  harness::FaultInjector::Options fopts;
  fopts.mtbf = 6000;
  fopts.mttr = 900;
  fopts.seed = seed + 1;
  harness::FaultInjector faults(&cluster, fopts);

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  wopts.stack = stack;
  harness::WorkloadDriver workload(&cluster, wopts);

  uint64_t h = kFnvBasis;
  for (uint32_t round = 0; round < 120; ++round) {
    cluster.RunFor(500);
    NodeSet up = cluster.UpNodes();
    if (stack != harness::Stack::kAccessibleCopies || up.Empty()) continue;
    NodeId from = up.NthMember(round % up.Size());
    baseline::StartViewChange(&cluster.node(from), [&h](Status s) {
      h = FoldBytes(h, s.ToString());
    });
  }
  workload.Stop();
  faults.Stop();
  cluster.RunFor(4000);

  EXPECT_GT(cluster.metrics().CounterValue("workload.write.committed"), 0u);
  EXPECT_GT(cluster.metrics().CounterValue("workload.write.failed"), 0u)
      << "the pinned run must see crash faults refuse some writes";
  for (const auto& [name, counter] : cluster.metrics().counters()) {
    h = Fold(FoldBytes(h, name), counter->value());
  }
  h = Fold(h, cluster.simulator().events_executed());
  for (uint32_t i = 0; i < 9; ++i) {
    const storage::ReplicaStore& s = cluster.node(i).store();
    h = Fold(h, s.object().Fingerprint());
    h = Fold(Fold(h, s.version()), s.epoch_number());
  }
  return h;
}

TEST(Determinism, BaselineFingerprintIsPinned) {
  // A change here means seeded runs of a baseline stack no longer replay
  // byte-identically across builds.
  EXPECT_EQ(RunBaselineOnce(harness::Stack::kStatic, CoterieKind::kGrid, 31),
            0xee5cec941eb3fb61ull);
  EXPECT_EQ(
      RunBaselineOnce(harness::Stack::kStatic, CoterieKind::kMajority, 32),
      0x469f94b610d5c2e1ull);
  EXPECT_EQ(RunBaselineOnce(harness::Stack::kDynamicVoting,
                            CoterieKind::kMajority, 33),
            0x1f371ea63d0efc17ull);
  EXPECT_EQ(RunBaselineOnce(harness::Stack::kAccessibleCopies,
                            CoterieKind::kMajority, 34),
            0xe82ab26b820aaa65ull);
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
