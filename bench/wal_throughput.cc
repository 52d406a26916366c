// WAL throughput and recovery-replay benchmarks for the durable storage
// engine (src/store).
//
// Two kinds of numbers come out of this bench:
//
//  * Simulated-time latencies (suffix "_latency_sim") and the group-commit
//    ratio ("group_commit_speedup"). These are pure functions of the disk
//    model and the WAL's batching logic — deterministic across machines —
//    so the CI regression gate can hold them to a tight threshold. The
//    speedup is the per-record cost of serialized one-commit-per-sync
//    traffic divided by the per-record cost under concurrent commits; it
//    falls back toward 1.0 if group commit stops coalescing barriers.
//
//  * Wall-clock throughputs (records appended per second, recovery replay
//    records per second). These vary with the machine and stay
//    informational.
//
//   wal_throughput [--quick] [--metrics-json PATH]
//
// --quick shrinks iteration counts ~20x for smoke runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench_json.h"
#include "protocol/redo.h"
#include "sim/simulator.h"
#include "storage/versioned_object.h"
#include "store/durable_store.h"
#include "util/status.h"

namespace {

// Wall time is the measurement here (records/sec is informational; the
// gated rows are sim-time).  // dcp-lint: allow(wall-clock)
using Clock = std::chrono::steady_clock;
using dcp::Status;
using dcp::sim::Simulator;
using dcp::storage::Update;
using dcp::storage::VersionedObject;
using dcp::store::ByteReader;
using dcp::store::DurabilityOptions;
using dcp::store::DurableStore;
namespace redo = dcp::protocol::redo;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

DurabilityOptions StoreOptions(uint64_t checkpoint_threshold) {
  DurabilityOptions o;
  o.enabled = true;
  o.crash.tear_probability = 0;  // No crashes outside the recovery row.
  o.crash.seed = 1;
  o.checkpoint_threshold_bytes = checkpoint_threshold;
  return o;
}

// Effectively disables checkpointing for rows that only measure the log.
constexpr uint64_t kNoCheckpoint = uint64_t{1} << 40;

/// `n` objects at their birth value.
std::map<uint32_t, VersionedObject> Birth(uint32_t n) {
  std::map<uint32_t, VersionedObject> objects;
  for (uint32_t i = 0; i < n; ++i) {
    objects.emplace(i, VersionedObject(std::vector<uint8_t>(64, 0)));
  }
  return objects;
}

/// Gives the object records their meaning over `objects`, as a node's
/// Apply does; other records have none here.
void ApplyTo(std::map<uint32_t, VersionedObject>& objects,
             redo::Record record) {
  if (auto* r = std::get_if<redo::Update>(&record)) {
    VersionedObject& object = objects.at(r->object);
    if (object.version() + 1 == r->produced) {
      object.Apply(std::move(r->update));
    }
  } else if (auto* r = std::get_if<redo::Snapshot>(&record)) {
    VersionedObject& object = objects.at(r->object);
    if (object.version() < r->version) {
      object.InstallSnapshot(r->version, Update::Total(std::move(r->data)));
    }
  }
}

/// Recovers `store` into `objects`, which start at birth: the checkpoint's
/// records, then the log's. False when the store refuses its checkpoint.
bool RecoverInto(DurableStore& store,
                 std::map<uint32_t, VersionedObject>& objects) {
  auto apply = [&objects](redo::Record r) { ApplyTo(objects, std::move(r)); };
  Status s = store.Recover(
      [&apply](ByteReader& body) { return redo::ReadCheckpoint(body, apply); },
      [&apply](uint8_t type, ByteReader& payload) {
        if (std::optional<redo::Record> r = redo::Decode(type, payload)) {
          apply(std::move(*r));
        }
      });
  return s.ok();
}

std::vector<uint8_t> Payload(uint64_t i) {
  std::vector<uint8_t> p(64);
  for (size_t j = 0; j < p.size(); ++j) {
    p[j] = static_cast<uint8_t>((i * 131 + j) & 0xFF);
  }
  return p;
}

struct CommitRunResult {
  double sim_elapsed = 0;
  double wall_elapsed = 0;
  uint64_t syncs = 0;
};

/// Runs `records` one-record commits. With batch == 1 each commit waits
/// for the previous one's barrier (the serialized pattern: one sync per
/// commit). With batch > 1, `batch` commits are issued from a single
/// event, so all but the first pile into one shared barrier — the group
/// commit pattern a multi-client node produces.
CommitRunResult RunCommits(uint64_t records, uint64_t batch) {
  Simulator sim;
  DurableStore store(&sim, StoreOptions(kNoCheckpoint));
  uint64_t issued = 0;
  std::function<void()> next = [&] {
    if (issued >= records) return;
    auto pending = std::make_shared<uint64_t>(0);
    for (uint64_t b = 0; b < batch && issued < records; ++b) {
      ++issued;
      redo::Append(store,
                   redo::Update{0, issued, Update::Total(Payload(issued))});
      ++*pending;
      store.Commit([&next, pending] {
        if (--*pending == 0) next();
      });
    }
  };
  const Clock::time_point t0 = Clock::now();
  sim.Schedule(0, next);
  sim.Run();
  CommitRunResult r;
  r.sim_elapsed = sim.Now();
  r.wall_elapsed = Seconds(t0, Clock::now());
  r.syncs = sim.metrics().counter("disk.syncs")->value();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t kCommits = quick ? 200 : 4000;
  const uint64_t kReplayRecords = quick ? 5000 : 100000;
  const uint64_t kCheckpointRecords = quick ? 500 : 10000;
  const uint64_t kBatch = 8;

  dcp::bench::BenchJsonWriter json("wal_throughput");
  std::printf("wal_throughput%s\n", quick ? " (--quick)" : "");

  // --- serialized commits: one sync per commit ---------------------------
  CommitRunResult serial = RunCommits(kCommits, 1);
  double serial_latency = serial.sim_elapsed / static_cast<double>(kCommits);
  json.Row("sequential_commit");
  json.Metric("commit_latency_sim", serial_latency);
  json.Metric("syncs_per_commit",
              static_cast<double>(serial.syncs) / kCommits);
  json.Metric("commits_per_sec", kCommits / serial.wall_elapsed);
  std::printf("  sequential_commit: %.4f sim/commit, %.2f syncs/commit, "
              "%.0f commits/s wall\n",
              serial_latency, static_cast<double>(serial.syncs) / kCommits,
              kCommits / serial.wall_elapsed);

  // --- group commit: concurrent commits share barriers -------------------
  CommitRunResult grouped = RunCommits(kCommits, kBatch);
  double grouped_latency = grouped.sim_elapsed / static_cast<double>(kCommits);
  json.Row("group_commit");
  json.Metric("record_latency_sim", grouped_latency);
  json.Metric("records_per_sync",
              static_cast<double>(kCommits) / grouped.syncs);
  json.Metric("group_commit_speedup", serial_latency / grouped_latency);
  std::printf("  group_commit: %.4f sim/record, %.2f records/sync, "
              "%.2fx vs serialized\n",
              grouped_latency, static_cast<double>(kCommits) / grouped.syncs,
              serial_latency / grouped_latency);

  // --- recovery replay: scan + redo a long log ---------------------------
  {
    Simulator sim;
    DurableStore store(&sim, StoreOptions(kNoCheckpoint));
    constexpr uint32_t kObjects = 4;
    std::vector<uint64_t> version(kObjects, 0);
    for (uint64_t i = 0; i < kReplayRecords; ++i) {
      uint32_t obj = static_cast<uint32_t>(i % kObjects);
      Update u = i % 3 == 0 ? Update::Total(Payload(i))
                            : Update::Partial(i % 32, Payload(i));
      redo::Append(store, redo::Update{obj, ++version[obj], std::move(u)});
    }
    bool committed = false;
    store.Commit([&] { committed = true; });
    sim.Run();
    if (!committed) {
      std::fprintf(stderr, "wal_throughput: commit never completed\n");
      return 1;
    }
    store.Crash();
    // Replay decodes each record and applies its update, as a node does.
    std::map<uint32_t, VersionedObject> objects = Birth(kObjects);
    const Clock::time_point t0 = Clock::now();
    const bool recovered = RecoverInto(store, objects);
    double wall = Seconds(t0, Clock::now());
    if (!recovered || objects.at(0).version() != version[0]) {
      std::fprintf(stderr, "wal_throughput: replay lost records\n");
      return 1;
    }
    json.Row("recovery_replay");
    json.Metric("replay_records_per_sec", kReplayRecords / wall);
    json.Metric("replayed_records",
                static_cast<double>(store.last_recovery().replayed_records));
    std::printf("  recovery_replay: %.0f records/s wall (%llu records)\n",
                kReplayRecords / wall,
                static_cast<unsigned long long>(
                    store.last_recovery().replayed_records));
  }

  // --- checkpoint cycle: log growth triggers snapshot + truncation -------
  {
    Simulator sim;
    DurableStore store(&sim, StoreOptions(/*checkpoint_threshold=*/8192));
    std::map<uint32_t, VersionedObject> live = Birth(1);
    store.set_checkpoint_source([&live](dcp::store::ByteWriter& w) {
      const VersionedObject& object = live.at(0);
      redo::CheckpointWriter(w).Add(
          redo::Snapshot{0, object.version(), object.data()});
    });
    uint64_t issued = 0;
    std::function<void()> next = [&] {
      if (issued >= kCheckpointRecords) return;
      ++issued;
      Update u = Update::Total(Payload(issued));
      live.at(0).Apply(u);
      redo::Append(store, redo::Update{0, issued, u});
      // A small think-time gap between commits leaves the tail empty at
      // the sync hook, letting the checkpoint trigger mid-run (a chain
      // that re-appends inside the commit callback never does).
      store.Commit([&] { sim.Schedule(0.1, next); });
    };
    sim.Schedule(0, next);
    sim.Run();
    uint64_t checkpoints = sim.metrics().counter("store.checkpoints")->value();
    uint64_t truncated =
        sim.metrics().counter("store.truncated_bytes")->value();
    json.Row("checkpoint_cycle");
    json.Metric("checkpoints", static_cast<double>(checkpoints));
    json.Metric("truncated_bytes_per_checkpoint",
                checkpoints ? static_cast<double>(truncated) / checkpoints : 0);
    std::printf("  checkpoint_cycle: %llu checkpoints, %.0f bytes "
                "truncated each\n",
                static_cast<unsigned long long>(checkpoints),
                checkpoints ? static_cast<double>(truncated) / checkpoints : 0);
    // The cycle ends in a crash: the last checkpoint plus the log after
    // it must bring back the live object.
    store.Crash();
    std::map<uint32_t, VersionedObject> recovered = Birth(1);
    if (!RecoverInto(store, recovered) ||
        !store.last_recovery().from_checkpoint ||
        recovered.at(0).version() != live.at(0).version() ||
        recovered.at(0).data() != live.at(0).data()) {
      std::fprintf(stderr, "wal_throughput: checkpoint recovery differs "
                           "from the live object\n");
      return 1;
    }
  }

  std::string path = dcp::bench::MetricsJsonPathFromArgs(argc, argv);
  if (!path.empty() && !json.WriteFile(path)) return 1;
  return 0;
}
