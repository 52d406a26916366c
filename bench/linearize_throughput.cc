// Throughput and search-cost benchmarks for the client-history
// linearizability checker (src/analysis/linearize).
//
// Two kinds of numbers come out of this bench:
//
//  * Search cost in memoized states ("search_latency_states", states the
//    Wing-Gong search visits per audit). States are a pure function of
//    the history and the checker's pruning — deterministic across
//    machines — so the CI regression gate holds them to a tight
//    threshold. A pruning regression (e.g. losing greedy read
//    absorption) blows these up orders of magnitude before it blows up
//    wall time on any one machine.
//
//  * Wall-clock audit throughput (ops audited per second). Varies with
//    the machine; stays informational.
//
//   linearize_throughput [--quick] [--metrics-json PATH]
//
// --quick shrinks history sizes ~10x for smoke runs. Every audited
// history in this bench must come back linearizable; a violation or an
// inconclusive verdict is a bench failure (rot prevention: the bench
// exercises the same checker the test lanes trust).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "bench_json.h"
#include "harness/nemesis.h"
#include "harness/workload.h"
#include "protocol/cluster.h"
#include "storage/versioned_object.h"

namespace {

// Wall time measures audit throughput only (informational; the gated
// rows count memoized states).  // dcp-lint: allow(wall-clock)
using Clock = std::chrono::steady_clock;
using dcp::analysis::AuditHistory;
using dcp::analysis::AuditMode;
using dcp::analysis::AuditOptions;
using dcp::analysis::AuditVerdict;
using dcp::analysis::ClientHistory;
using dcp::analysis::ClientOp;
using dcp::harness::Nemesis;
using dcp::harness::Scenario;
using dcp::harness::WorkloadDriver;
using dcp::protocol::Cluster;
using dcp::protocol::ClusterOptions;
using dcp::protocol::CoterieKind;
using dcp::storage::Update;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct AuditedRow {
  uint64_t ops = 0;
  uint64_t states = 0;
  double wall = 0;
  bool ok = false;
};

AuditedRow Audit(const ClientHistory& history,
                 const std::vector<uint8_t>& initial) {
  AuditOptions a;
  a.mode = AuditMode::kLinearizable;
  a.initial_value = initial;
  const Clock::time_point t0 = Clock::now();
  AuditVerdict v = AuditHistory(history, a);
  AuditedRow row;
  row.wall = Seconds(t0, Clock::now());
  row.ops = history.ops().size();
  row.states = v.states_explored;
  row.ok = v.ok;
  if (!v.ok) {
    std::fprintf(stderr, "linearize_throughput: audit failed: %s\n",
                 v.ToString().c_str());
  }
  return row;
}

/// A real harness history: seeded nemesis storm against a live cluster,
/// audited end to end — the shape the test lanes feed the checker.
ClientHistory HarnessHistory(CoterieKind kind, uint64_t seed,
                             dcp::sim::Time horizon) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = kind;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.fault_model.global.reorder_spike = 20.0;
  Cluster cluster(opts);
  Scenario scenario =
      dcp::harness::RandomScenario(seed * 7919 + 13, 9, horizon);
  Nemesis nemesis(&cluster, scenario);

  ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.seed = seed + 1000;
  wopts.client_history = &history;
  wopts.op_timeout = 2000;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(horizon);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(8000);
  return history;
}

ClientOp Op(uint64_t client, ClientOp::Kind kind, double invoked,
            double returned) {
  ClientOp op;
  op.client = client;
  op.kind = kind;
  op.outcome = ClientOp::Outcome::kOk;
  op.invoked_at = invoked;
  op.returned_at = returned;
  return op;
}

/// Sequential load: non-overlapping write/read pairs from rotating
/// clients. The fast path — candidate sets of size one, reads absorbed
/// greedily — so states should track op count almost linearly.
ClientHistory SequentialHistory(uint64_t num_writes) {
  ClientHistory h;
  dcp::storage::VersionedObject object(std::vector<uint8_t>(32, 0));
  for (uint64_t v = 1; v <= num_writes; ++v) {
    double t = static_cast<double>(v) * 10.0;
    Update u = Update::Partial((v % 16) * 2,
                               {static_cast<uint8_t>(v & 0xFF),
                                static_cast<uint8_t>((v >> 8) & 0xFF)});
    object.Apply(u);
    ClientOp w = Op(v % 8, ClientOp::Kind::kWrite, t, t + 5.0);
    w.update = u;
    w.version = v;
    h.Add(w);
    ClientOp r = Op((v + 3) % 8, ClientOp::Kind::kRead, t + 6.0, t + 8.0);
    r.version = v;
    r.data = object.data();
    h.Add(r);
  }
  return h;
}

/// Concurrent load: batches of mutually-overlapping writes and reads,
/// with a droppable open-interval write sprinkled into every eighth
/// batch. This is the expensive shape — wide candidate sets plus the
/// place-or-drop branching open ops force on the search.
ClientHistory ConcurrentHistory(uint64_t num_batches) {
  constexpr uint64_t kWidth = 4;
  ClientHistory h;
  dcp::storage::VersionedObject object(std::vector<uint8_t>(32, 0));
  uint64_t version = 0;
  for (uint64_t b = 0; b < num_batches; ++b) {
    double t0 = static_cast<double>(b) * 100.0;
    std::vector<std::vector<uint8_t>> snapshots;
    std::vector<Update> updates;
    for (uint64_t i = 0; i < kWidth; ++i) {
      uint64_t v = version + i + 1;
      Update u = Update::Partial((v % 8) * 4,
                                 {static_cast<uint8_t>(v & 0xFF),
                                  static_cast<uint8_t>(b & 0xFF)});
      object.Apply(u);
      updates.push_back(u);
      snapshots.push_back(object.data());
    }
    // All kWidth writes overlap in [t0, t0+50]; versions pin the order.
    for (uint64_t i = 0; i < kWidth; ++i) {
      ClientOp w = Op(i, ClientOp::Kind::kWrite, t0, t0 + 50.0);
      w.update = updates[i];
      w.version = version + i + 1;
      h.Add(w);
    }
    // Reads concurrent with the whole batch, one per write version.
    for (uint64_t i = 0; i < kWidth; ++i) {
      ClientOp r = Op(kWidth + i, ClientOp::Kind::kRead, t0, t0 + 50.0);
      r.version = version + i + 1;
      r.data = snapshots[i];
      h.Add(r);
    }
    if (b % 8 == 0) {
      // An in-doubt write that never decided; every acked version slot is
      // taken, so the checker must discover it can only be dropped.
      ClientOp open = Op(2 * kWidth, ClientOp::Kind::kWrite, t0, 0);
      open.outcome = ClientOp::Outcome::kOpen;
      open.update = Update::Partial(30, {0xEE});
      h.Add(open);
    }
    version += kWidth;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t kSeqWrites = quick ? 2000 : 20000;
  const uint64_t kConcBatches = quick ? 250 : 2500;
  const dcp::sim::Time kHorizon = quick ? 8000 : 16000;

  dcp::bench::BenchJsonWriter json("linearize_throughput");
  std::printf("linearize_throughput%s\n", quick ? " (--quick)" : "");
  bool all_ok = true;

  struct NamedRow {
    const char* name;
    AuditedRow row;
  };
  std::vector<NamedRow> rows;

  const std::vector<uint8_t> initial(32, 0);
  {
    ClientHistory h = HarnessHistory(CoterieKind::kGrid, 11, kHorizon);
    rows.push_back({"harness_grid_nemesis", Audit(h, initial)});
  }
  {
    ClientHistory h = HarnessHistory(CoterieKind::kMajority, 12, kHorizon);
    rows.push_back({"harness_majority_nemesis", Audit(h, initial)});
  }
  rows.push_back({"synthetic_sequential",
                  Audit(SequentialHistory(kSeqWrites),
                        initial)});
  rows.push_back({"synthetic_concurrent_open",
                  Audit(ConcurrentHistory(kConcBatches),
                        initial)});

  for (const NamedRow& r : rows) {
    all_ok = all_ok && r.row.ok;
    double states_per_op =
        r.row.ops ? static_cast<double>(r.row.states) / r.row.ops : 0;
    double ops_per_sec = r.row.wall > 0 ? r.row.ops / r.row.wall : 0;
    json.Row(r.name);
    json.Metric("ops_audited", static_cast<double>(r.row.ops));
    json.Metric("search_latency_states", states_per_op);
    json.Metric("audit_ops_per_sec", ops_per_sec);
    std::printf("  %s: %llu ops, %.2f states/op, %.0f ops/s wall\n", r.name,
                static_cast<unsigned long long>(r.row.ops), states_per_op,
                ops_per_sec);
  }

  if (!all_ok) {
    std::fprintf(stderr,
                 "linearize_throughput: a bench history failed its audit\n");
    return 1;
  }
  std::string path = dcp::bench::MetricsJsonPathFromArgs(argc, argv);
  if (!path.empty() && !json.WriteFile(path)) return 1;
  return 0;
}
