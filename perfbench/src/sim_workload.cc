// The simulator workload: the paper's regime. A nine-node dynamic grid
// with durable storage (simulated disk + WAL, crash recovery), under the
// independent site-failure model at per-node availability 0.95, with an
// open loop of Poisson clients. Everything simulated is deterministic
// per seed; only the host-time metrics (ops_per_s, setup_s, CPU) vary.
//
// The epoch daemons stay off. With them on, about one round in six ends
// with a stale read that the linearizability audit rejects (a read
// returns version v after a write of version v+1 was acknowledged; for
// example sub-seed Mix(2 * 1000003 + 4)); with them off, no violation
// showed in 52 rounds, with or without durability. A workload that fails
// its own correctness check cannot measure anything, so epoch
// re-formation is left out until that defect is fixed.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "bench.h"
#include "harness/fault_injector.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::perfbench {
namespace {

using analysis::ClientOp;
using protocol::Cluster;

constexpr uint32_t kNodes = 9;
constexpr uint32_t kObjects = 16;
constexpr size_t kObjectBytes = 32;
/// Simulated ms of client traffic per round.
constexpr sim::Time kHorizon = 200000;
/// Trace events are folded into round durations every this many sim ms,
/// so the tracer never holds a whole round's events.
constexpr sim::Time kChunk = 5000;
static_assert(static_cast<int>(kHorizon) % static_cast<int>(kChunk) == 0);
/// Budget for reaching quiescence once faults stop.
constexpr sim::Time kQuiesceBudget = 40000;

protocol::ClusterOptions Options(uint64_t seed, bool traced) {
  protocol::ClusterOptions o;
  o.num_nodes = kNodes;
  o.num_objects = kObjects;
  o.coterie = protocol::CoterieKind::kGrid;
  o.seed = Mix(seed ^ 0x434c5553544552ULL);
  o.latency = net::LatencyModel{1.0, 0.5};
  o.initial_value.assign(kObjectBytes, 0);
  o.durability.enabled = true;
  o.start_epoch_daemons = false;  // See the note at the top of this file.
  o.enable_tracing = traced;
  return o;
}

bool RunToQuiescence(Cluster& cluster) {
  for (sim::Time spent = 0; spent < kQuiesceBudget; spent += 500) {
    cluster.RunFor(500);
    if (cluster.Quiescent()) return true;
  }
  return cluster.Quiescent();
}

uint64_t MaxEpoch(Cluster& cluster) {
  uint64_t e = 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    e = std::max<uint64_t>(e, cluster.node(n).epoch().number);
  }
  return e;
}

}  // namespace

bool IsSimWorkload(const std::string& workload) {
  return workload == "sim_churn_durable";
}

RoundResult RunSimRound(uint64_t seed, bool traced) {
  RoundResult result;

  // --- set-up: construction and one total write per object ---
  // The preload writes enter the audited history first, each as its own
  // client session (ids past any WorkloadDriver assigns).
  analysis::ClientHistory history;
  const Clock::time_point setup_t0 = Clock::now();
  auto cluster = std::make_unique<Cluster>(Options(seed, traced));
  for (storage::ObjectId o = 0; o < kObjects; ++o) {
    const storage::Update update = storage::Update::Total(
        std::vector<uint8_t>(kObjectBytes, static_cast<uint8_t>(Mix(seed + o))));
    const uint64_t id = history.InvokeWrite(uint64_t{1} << 32 | o, o, update,
                                            cluster->simulator().Now());
    auto w = cluster->WriteSyncRetry(static_cast<NodeId>(o % kNodes), o,
                                     update, /*max_attempts=*/20);
    if (!w.ok()) {
      result.errors.push_back("preload write failed: " +
                              w.status().ToString());
      return result;
    }
    history.ReturnWrite(id, cluster->simulator().Now(), w.value().version);
  }
  result.setup_s = SecondsSince(setup_t0);

  // --- timed phase: site failures + open-loop clients ---
  Counters before;
  AddCounters(cluster->metrics(), &before);
  const uint64_t epoch_before = MaxEpoch(*cluster);
  sim::Simulator* simulator = &cluster->simulator();
  SendTap tap([simulator] { return simulator->Now(); });
  if (traced) {
    cluster->tracer().Clear();  // Keep set-up out of the round analysis.
    tap.on = true;
    cluster->network().set_send_tap(
        [&tap](const net::Message& m) { tap.Observe(m); });
  }
  RoundTracker tracker;
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

  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point timed_t0 = Clock::now();
  {
    harness::FaultInjector injector(cluster.get(), fopts);
    harness::WorkloadDriver driver(cluster.get(), wopts);
    for (sim::Time t = 0; t < kHorizon; t += kChunk) {
      cluster->RunFor(kChunk);
      if (traced) {
        tracker.Feed(cluster->tracer().events());
        cluster->tracer().Clear();
      }
    }
    driver.Stop();
    injector.Stop();
  }
  // The timed phase is the fixed horizon of client traffic; settling
  // afterwards depends on which sites happen to be down at its end.
  result.timed_s = SecondsSince(timed_t0);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  result.max_threads = ThreadCount();
  uint64_t stale_end = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (storage::ObjectId o = 0; o < kObjects; ++o) {
      if (cluster->node(n).store(o).stale()) ++stale_end;
    }
  }
  // Repair every site and let in-flight work settle: the invariant
  // checkers are defined at quiescence.
  const NodeSet up = cluster->UpNodes();
  for (NodeId n = 0; n < kNodes; ++n) {
    if (!up.Contains(n)) cluster->Recover(n);
  }
  const bool quiet = RunToQuiescence(*cluster);
  if (traced) {
    tracker.Feed(cluster->tracer().events());
    cluster->tracer().Clear();
    tap.on = false;
  }
  // Stale replicas that no current replica owes propagation once the
  // cluster is quiet; nothing repairs them here.
  for (storage::ObjectId o = 0; o < kObjects; ++o) {
    bool owed = false;
    uint64_t stale = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
      const bool node_stale = cluster->node(n).store(o).stale();
      owed = owed ||
             (!node_stale && !cluster->node(n).pending_propagation(o).Empty());
      stale += node_stale ? 1 : 0;
    }
    if (!owed) result.orphaned_replicas += stale;
  }

  // --- outcomes, from the client history ---
  std::set<std::pair<storage::ObjectId, storage::Version>> versions;
  for (const ClientOp& op : history.ops()) {
    const bool write = op.kind == ClientOp::Kind::kWrite;
    if (op.id < kObjects) {  // A preload write: not a timed operation.
      versions.insert({op.object, op.version});
      continue;
    }
    (write ? result.writes_attempted : result.reads_attempted) += 1;
    if (op.outcome != ClientOp::Outcome::kOk) continue;
    const double latency = op.returned_at - op.invoked_at;
    if (write) {
      ++result.writes_committed;
      result.write_ms.push_back(latency);
      if (!versions.insert({op.object, op.version}).second) {
        result.errors.push_back("object " + std::to_string(op.object) +
                                ": version " + std::to_string(op.version) +
                                " acknowledged to two writes");
      }
    } else {
      ++result.reads_committed;
      result.read_ms.push_back(latency);
    }
  }

  // --- correctness at quiescence ---
  if (!quiet) result.errors.push_back("cluster did not quiesce");
  if (result.orphaned_replicas > kMaxOrphanedReplicas) {
    result.errors.push_back(std::to_string(result.orphaned_replicas) +
                            " stale replicas are owed no propagation at "
                            "quiescence");
  }
  if (Status s = cluster->CheckEpochInvariants(); !s.ok()) {
    result.errors.push_back("epoch invariants: " + s.ToString());
  }
  if (Status s = cluster->CheckReplicaConsistency(); !s.ok()) {
    result.errors.push_back("replica consistency: " + s.ToString());
  }
  analysis::AuditOptions audit;
  audit.mode = analysis::AuditMode::kLinearizable;
  audit.initial_value.assign(kObjectBytes, 0);
  audit.minimize_counterexample = false;
  const analysis::AuditVerdict verdict = analysis::AuditHistory(history, audit);
  if (!verdict.ok) {
    result.errors.push_back("linearizability audit: " +
                            verdict.explanation);
  } else {
    // Self-test: one flipped byte in one recorded read must fail the audit.
    std::vector<ClientOp> corrupt = history.ops();
    for (ClientOp& op : corrupt) {
      if (op.kind == ClientOp::Kind::kRead &&
          op.outcome == ClientOp::Outcome::kOk && !op.data.empty()) {
        op.data[op.data.size() / 2] ^= 0x01;
        break;
      }
    }
    if (analysis::AuditOps(corrupt, audit).ok) {
      result.errors.push_back(
          "self-test: a read with one flipped byte passed the audit");
    }
  }

  if (!traced) return result;

  // --- per-layer metrics (traced rounds) ---
  Counters after;
  AddCounters(cluster->metrics(), &after);
  auto delta = [&](const std::string& k) { return after[k] - before[k]; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  const double n_ops = static_cast<double>(result.attempted());
  const double n_writes =
      std::max<double>(1, static_cast<double>(result.writes_committed));
  uint64_t log_entries = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (storage::ObjectId o = 0; o < kObjects; ++o) {
      log_entries += cluster->node(n).store(o).object().LogSize();
    }
  }
  std::map<std::string, double>& L = result.layer;
  AddCounterMetrics(before, after, n_ops, n_writes, result.cpu_s, &L);
  AddTraceMetrics(tracker, tap, n_ops, &L);
  L["harness.retries_per_op"] = 0;  // WorkloadDriver never retries.
  L["harness.stale_retries_per_write"] = 0;
  L["protocol.epoch_changes"] =
      static_cast<double>(MaxEpoch(*cluster) - epoch_before);
  // No sockets, mailboxes or buffer pool on the simulator.
  L["runtime.frames_per_op"] = 0;
  L["runtime.frames_per_writev"] = 0;
  L["runtime.mailbox_wait_ms_p50"] = 0;
  L["runtime.mailbox_wait_ms_p99"] = 0;
  L["runtime.pool_hit_ratio"] = 0;
  L["storage.log_entries_per_replica"] =
      static_cast<double>(log_entries) / (kNodes * kObjects);
  L["storage.stale_replicas_end"] = static_cast<double>(stale_end);
  L["storage.orphaned_stale_replicas"] =
      static_cast<double>(result.orphaned_replicas);
  L["store.wal_records_per_op"] = delta("wal.records") / n_ops;
  L["store.wal_bytes_per_op"] = delta("wal.record_bytes") / n_ops;
  L["store.syncs_per_op"] = delta("disk.syncs") / n_ops;
  const auto& hists = cluster->metrics().histograms();
  auto batch = hists.find("wal.batch_records");
  L["store.batch_records_p50"] =
      batch == hists.end() ? 0 : batch->second->Percentile(50);
  L["store.checkpoint_bytes_per_op"] = delta("store.checkpoint_bytes") / n_ops;
  L["store.recovered_records_per_recovery"] =
      ratio(delta("store.recovered_records"), delta("store.recoveries"));
  L["sim.events_per_op"] = delta("sim.events_executed") / n_ops;

  // The benchmark's spans: each client operation, invoke to settle.
  for (const ClientOp& op : history.ops()) {
    if (op.outcome == ClientOp::Outcome::kOpen) continue;
    const bool write = op.kind == ClientOp::Kind::kWrite;
    const bool ok = op.outcome == ClientOp::Outcome::kOk;
    AddSpan(write ? (ok ? "write" : "write (failed)")
                  : (ok ? "read" : "read (failed)"),
            static_cast<uint32_t>(op.client), op.id, op.invoked_at,
            op.returned_at, &result.spans);
  }
  return result;
}

}  // namespace dcp::perfbench
