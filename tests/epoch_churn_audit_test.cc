// Epoch re-formation under site churn, audited end to end. The shape is
// the sim_churn_durable benchmark's (nine nodes with durable storage,
// per-node availability 0.95, an open loop of Poisson clients) with the
// epoch daemons on. Two short-horizon grid cases are seeds that once broke
// linearizability: a write committed between an epoch check's unlocked
// poll and its prepare, so the new epoch's stale marking missed it and a
// later read or write went behind the write's back. The long-horizon
// sweep runs the benchmark's 200 000 ms round on fixed seeds, in group
// and sharded shape, over grid and majority coteries.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "harness/fault_injector.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

using analysis::ClientOp;

constexpr uint32_t kNodes = 9;
constexpr uint32_t kObjects = 16;
constexpr size_t kObjectBytes = 32;
constexpr rt::Time kShortHorizon = 20000;
constexpr rt::Time kBenchmarkHorizon = 200000;
constexpr rt::Time kQuiesceBudget = 40000;

/// The benchmark's seed mixer (SplitMix64's finalizer).
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The benchmark's sub-seed of round `round` of `--seed seed`.
uint64_t SubSeed(uint64_t seed, uint64_t round) {
  return Mix(seed * 1000003 + round);
}

/// Runs one round of `horizon` sim ms from sub-seed `seed` and returns
/// every correctness failure it shows (empty: the round is correct).
std::vector<std::string> RunRound(uint64_t seed, bool sharded,
                                  CoterieKind coterie, rt::Time horizon) {
  std::vector<std::string> errors;
  ClusterOptions o;
  o.num_nodes = kNodes;
  o.num_objects = kObjects;
  o.coterie = coterie;
  o.sharded = sharded;
  o.replication_factor = kNodes;
  o.seed = Mix(seed ^ 0x434c5553544552ULL);
  o.latency = net::LatencyModel{1.0, 0.5};
  o.initial_value.assign(kObjectBytes, 0);
  o.durability.enabled = true;
  o.start_epoch_daemons = true;
  auto cluster = std::make_unique<Cluster>(o);

  // Preload: one total write per object, each its own client session.
  analysis::ClientHistory history;
  for (storage::ObjectId obj = 0; obj < kObjects; ++obj) {
    const auto fill = static_cast<uint8_t>(Mix(seed + obj));
    const storage::Update update =
        storage::Update::Total(std::vector<uint8_t>(kObjectBytes, fill));
    const uint64_t id = history.InvokeWrite(
        uint64_t{1} << 32 | obj, obj, update, cluster->simulator().Now());
    auto w = cluster->WriteSyncRetry(static_cast<NodeId>(obj % kNodes), obj,
                                     update, /*max_attempts=*/20);
    if (!w.ok()) return {"preload write failed: " + w.status().ToString()};
    history.ReturnWrite(id, cluster->simulator().Now(), w.value().version);
  }

  harness::FaultInjector::Options fopts;
  fopts.mtbf = 20000;
  fopts.mttr = 20000.0 / 19.0;  // Per-node availability 0.95.
  fopts.seed = Mix(seed ^ 0x4641554c54ULL);
  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.1;
  wopts.write_fraction = 0.5;
  wopts.seed = Mix(seed ^ 0x574f524b4cULL);
  wopts.object_size = kObjectBytes;
  wopts.op_timeout = 2000;
  wopts.client_history = &history;
  {
    harness::FaultInjector injector(cluster.get(), fopts);
    harness::WorkloadDriver driver(cluster.get(), wopts);
    cluster->RunFor(horizon);
    driver.Stop();
    injector.Stop();
  }
  const NodeSet up = cluster->UpNodes();
  for (NodeId n = 0; n < kNodes; ++n) {
    if (!up.Contains(n)) cluster->Recover(n);
  }
  bool quiet = false;
  for (rt::Time spent = 0; spent < kQuiesceBudget && !quiet; spent += 500) {
    cluster->RunFor(500);
    quiet = cluster->Quiescent();
  }
  if (!quiet) errors.push_back("cluster did not quiesce");

  std::set<std::pair<storage::ObjectId, storage::Version>> versions;
  for (const ClientOp& op : history.ops()) {
    if (op.kind != ClientOp::Kind::kWrite ||
        op.outcome != ClientOp::Outcome::kOk) {
      continue;
    }
    if (!versions.insert({op.object, op.version}).second) {
      errors.push_back("object " + std::to_string(op.object) + ": version " +
                       std::to_string(op.version) +
                       " acknowledged to two writes");
    }
  }
  if (Status s = cluster->CheckEpochInvariants(); !s.ok()) {
    errors.push_back("epoch invariants: " + s.ToString());
  }
  if (Status s = cluster->CheckReplicaConsistency(); !s.ok()) {
    errors.push_back("replica consistency: " + s.ToString());
  }
  analysis::AuditOptions audit;
  audit.mode = analysis::AuditMode::kLinearizable;
  audit.initial_value.assign(kObjectBytes, 0);
  audit.minimize_counterexample = false;
  const analysis::AuditVerdict verdict = analysis::AuditHistory(history, audit);
  if (!verdict.ok) {
    errors.push_back("linearizability audit: " + verdict.explanation);
  }
  if (Status s = cluster->CheckHistory(); !s.ok()) {
    errors.push_back("cluster history: " + s.ToString());
  }
  // The round must actually re-form epochs, or it tests nothing.
  storage::EpochNumber max_epoch = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (storage::ObjectId obj = 0; obj < kObjects; ++obj) {
      max_epoch = std::max(max_epoch, cluster->node(n).epoch(obj).number);
    }
  }
  if (max_epoch == 0) errors.push_back("no epoch was re-formed");
  return errors;
}

std::string Join(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

TEST(EpochChurnAudit, GroupGridSeedStaysLinearizable) {
  std::vector<std::string> errors =
      RunRound(SubSeed(7, 8), false, CoterieKind::kGrid, kShortHorizon);
  EXPECT_TRUE(errors.empty()) << Join(errors);
}

TEST(EpochChurnAudit, ShardedGridSeedStaysLinearizable) {
  std::vector<std::string> errors =
      RunRound(SubSeed(6, 1), true, CoterieKind::kGrid, kShortHorizon);
  EXPECT_TRUE(errors.empty()) << Join(errors);
}

/// (benchmark seed, sharded, coterie). Round 0 of seeds 1-4, fixed
/// before the sweep was first run.
using SweepCase = std::tuple<uint64_t, bool, CoterieKind>;

class LongHorizonSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LongHorizonSweep, StaysLinearizable) {
  const auto [seed, sharded, coterie] = GetParam();
  std::vector<std::string> errors =
      RunRound(SubSeed(seed, 0), sharded, coterie, kBenchmarkHorizon);
  EXPECT_TRUE(errors.empty()) << Join(errors);
}

INSTANTIATE_TEST_SUITE_P(
    EpochChurnAudit, LongHorizonSweep,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4}),
                       ::testing::Bool(),
                       ::testing::Values(CoterieKind::kGrid,
                                         CoterieKind::kMajority)),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(std::get<1>(info.param) ? "Sharded" : "Group") +
             (std::get<2>(info.param) == CoterieKind::kGrid ? "Grid"
                                                            : "Majority") +
             "Seed" + std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace dcp::protocol
