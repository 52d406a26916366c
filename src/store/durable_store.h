#ifndef DCP_STORE_DURABLE_STORE_H_
#define DCP_STORE_DURABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "store/codec.h"
#include "store/sim_disk.h"
#include "store/wal.h"
#include "util/status.h"

namespace dcp::store {

/// The durability knob threaded through ClusterOptions. `enabled = false`
/// (the default) constructs nothing, schedules nothing and draws no
/// randomness — durability-off runs are byte-identical to a build without
/// this subsystem.
struct DurabilityOptions {
  bool enabled = false;
  DiskOptions disk;
  DiskCrashModel crash;  ///< Seed is set per node by the cluster.
  /// Lazy-flush period for records appended without an explicit commit.
  rt::Time flush_interval = 10.0;
  /// Checkpoint once the durable log exceeds this many bytes.
  uint64_t checkpoint_threshold_bytes = 16 * 1024;
};

/// What Recover() did, for tests and the demo.
struct RecoveryStats {
  uint64_t replayed_records = 0;
  uint64_t torn_bytes = 0;
  bool from_checkpoint = false;
};

/// Per-node durable storage engine: a WAL of typed redo records over a
/// simulated disk, plus an atomically-replaced checkpoint file. It holds
/// bytes only: a checkpoint is the magic, the LSN it covers and a CRC
/// around a body the protocol layer writes and reads. The records, in the
/// log and in a checkpoint body, and their meaning are the protocol
/// layer's (protocol/redo.h).
///
/// Record ordering contract (what makes torn tails safe): within one
/// commit, *effect* records (updates, stale marks, epoch installs,
/// propagation duty) are appended before the Resolve record that erases
/// the staged transaction. A tear keeps a byte prefix, so a surviving
/// Resolve implies its effects survived too; effects surviving without
/// the Resolve leave the (durable, earlier) staged record in place and
/// cooperative termination re-derives the outcome — the version guards
/// in the commit path make the re-apply a no-op.
class DurableStore {
 public:
  DurableStore(rt::Runtime* sim, const DurabilityOptions& options);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Appends one record: its type byte and payload. Durable at the next
  /// barrier; `flush` says whether the lazy flush must issue one.
  void Append(uint8_t type, const std::vector<uint8_t>& payload,
              Flush flush = Flush::kLazy) {
    wal_.Append(type, payload, flush);
  }

  /// Group commit: `done` fires once everything logged so far is
  /// durable. Dropped on crash.
  void Commit(std::function<void()> done) { wal_.Commit(std::move(done)); }

  /// Has anything been appended since this LSN? (Ack gating.)
  uint64_t end_lsn() const { return wal_.end_lsn(); }

  /// Checkpoint source: writes the body of a checkpoint, the node's full
  /// persistent state captured synchronously when a checkpoint triggers.
  void set_checkpoint_source(std::function<void(ByteWriter&)> fn) {
    checkpoint_source_ = std::move(fn);
  }

  /// Fail-stop crash: drops commit waiters and in-flight disk work, then
  /// applies the disk crash model to the unsynced tails.
  void Crash();

  /// Recovery: hands `checkpoint` the body of the surviving checkpoint,
  /// if there is one, then hands `record` each log record the checkpoint
  /// does not cover, in log order. Trims any torn tail so the log is
  /// appendable again. Fails, handing out no log record, when a
  /// checkpoint exists but fails its CRC or `checkpoint` returns false:
  /// the log prefix it covered is gone, so the log alone is not the state.
  [[nodiscard]] Status Recover(
      const std::function<bool(ByteReader& body)>& checkpoint,
      const std::function<void(uint8_t type, ByteReader& payload)>& record);

  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // Exposed for tests/benches.
  SimDisk& disk() { return disk_; }
  Wal& wal() { return wal_; }

  /// A checkpoint file covering the log below `covered_lsn`, its body
  /// written by `body` (exposed for tests).
  static std::vector<uint8_t> EncodeCheckpoint(
      uint64_t covered_lsn, const std::function<void(ByteWriter&)>& body);

 private:
  void MaybeCheckpoint();

  rt::Runtime* sim_;
  DurabilityOptions opt_;
  SimDisk disk_;
  SimDisk::FileId wal_file_;
  SimDisk::FileId ckpt_file_;
  Wal wal_;
  std::function<void(ByteWriter&)> checkpoint_source_;
  bool checkpoint_inflight_ = false;
  RecoveryStats last_recovery_;

  obs::Counter* checkpoints_;
  obs::Counter* checkpoint_bytes_;
  obs::Counter* truncated_bytes_;
  obs::Counter* recoveries_;
  obs::Counter* recovered_records_;
  obs::Counter* recovered_torn_bytes_;
  obs::Counter* recoveries_from_checkpoint_;
};

}  // namespace dcp::store

#endif  // DCP_STORE_DURABLE_STORE_H_
