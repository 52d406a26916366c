#ifndef DCP_STORE_DURABLE_STORE_H_
#define DCP_STORE_DURABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "storage/replica_store.h"
#include "storage/versioned_object.h"
#include "store/codec.h"
#include "store/sim_disk.h"
#include "store/wal.h"

namespace dcp::store {

/// Operation-id watermark stride: recovery skips the id space forward to
/// the last durable watermark, so ids are never reused as long as fewer
/// than this many ids are minted between watermark flushes.
inline constexpr uint64_t kOpIdStride = 256;

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

/// Everything a replica node must reconstruct after a crash — and,
/// symmetrically, everything a checkpoint captures. The node seeds it
/// with the initial (epoch 0, version 0) state; Recover() overlays the
/// checkpoint and replays the log on top.
///
/// The 2PC staged actions are protocol-layer types; they travel through
/// the store as opaque byte blobs (see protocol/action_codec.h), keeping
/// this library free of protocol headers.
struct RecoveredState {
  using TxKey = std::pair<NodeId, uint64_t>;

  storage::EpochNumber epoch_number = 0;
  NodeSet epoch_list;

  struct ObjectState {
    storage::VersionedObject object;
    bool stale = false;
    storage::Version desired_version = 0;
  };
  std::map<storage::ObjectId, ObjectState> objects;

  struct StagedEntry {
    storage::LockOwner owner;
    NodeSet participants;
    std::vector<uint8_t> action;  ///< Opaque protocol-encoded StagedAction.
  };
  std::map<TxKey, StagedEntry> staged;
  std::map<TxKey, uint8_t> outcomes;
  std::map<storage::ObjectId, NodeSet> pending_propagation;
  uint64_t next_operation_id = 1;

  /// Per-object epoch lineages (sharded deployments): each hosted
  /// object's own record. Empty when the node hosts only the group-wide
  /// lineage (the epoch_number/epoch_list above), keeping both the
  /// checkpoint image and the redo stream byte-identical to the
  /// pre-sharding format.
  std::map<storage::ObjectId, storage::EpochRecord> object_epochs;
};

/// What Recover() did, for tests and the demo.
struct RecoveryStats {
  uint64_t replayed_records = 0;
  uint64_t torn_bytes = 0;
  bool from_checkpoint = false;
};

/// Per-node durable storage engine: a WAL of typed redo records over a
/// simulated disk, plus an atomically-replaced checkpoint file.
///
/// Record ordering contract (what makes torn tails safe): within one
/// commit, *effect* records (updates, stale marks, epoch installs,
/// propagation duty) are appended before the kResolve record that erases
/// the staged transaction. A tear keeps a byte prefix, so a surviving
/// kResolve implies its effects survived too; effects surviving without
/// the kResolve leave the (durable, earlier) staged record in place and
/// cooperative termination re-derives the outcome — the version guards
/// in the commit path make the re-apply a no-op.
class DurableStore {
 public:
  DurableStore(rt::Runtime* sim, const DurabilityOptions& options);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // --- typed redo records (append-only; durable at the next barrier) ---
  void LogUpdate(storage::ObjectId object, storage::Version produced,
                 const storage::Update& update) {
    Log(RecordType::kUpdate, object, produced, update);
  }
  void LogSnapshot(storage::ObjectId object, storage::Version version,
                   const std::vector<uint8_t>& data) {
    Log(RecordType::kSnapshot, object, version, data);
  }
  void LogMarkStale(storage::ObjectId object, storage::Version desired) {
    Log(RecordType::kMarkStale, object, desired);
  }
  void LogClearStale(storage::ObjectId object) {
    Log(RecordType::kClearStale, object);
  }
  /// An epoch install on the group-wide lineage (`scope` empty: a
  /// kEpochInstall record) or on one object's lineage.
  void LogEpochInstall(storage::EpochNumber number, const NodeSet& list,
                       std::optional<storage::ObjectId> scope = std::nullopt) {
    if (scope) {
      Log(RecordType::kObjectEpochInstall, *scope, number, list);
    } else {
      Log(RecordType::kEpochInstall, number, list);
    }
  }
  void LogStage(const storage::LockOwner& owner, const NodeSet& participants,
                const std::vector<uint8_t>& action) {
    Log(RecordType::kStage, owner, participants, action);
  }
  void LogResolve(const storage::LockOwner& owner, uint8_t outcome) {
    Log(RecordType::kResolve, owner, outcome);
  }
  /// Coordinator decision (or outcome learned without a staged entry).
  /// Unlike kResolve, replay records the outcome WITHOUT erasing a staged
  /// entry: a coordinator that decided but crashed before its own
  /// participant commit must keep its staged action so termination can
  /// still apply the effects.
  void LogDecide(const storage::LockOwner& owner, uint8_t outcome) {
    Log(RecordType::kDecide, owner, outcome);
  }
  void LogPropAdd(storage::ObjectId object, const NodeSet& targets) {
    Log(RecordType::kPropAdd, object, targets);
  }
  void LogPropDone(storage::ObjectId object, NodeId target) {
    Log(RecordType::kPropDone, object, target);
  }

  /// Extends the durable operation-id watermark when `next_id` nears it.
  void ReserveOperationIds(uint64_t next_id);

  /// Group commit: `done` fires once everything logged so far is
  /// durable. Dropped on crash.
  void Commit(std::function<void()> done) { wal_.Commit(std::move(done)); }

  /// Has anything been appended since this LSN? (Ack gating.)
  uint64_t end_lsn() const { return wal_.end_lsn(); }

  /// Checkpoint source: the node's full persistent state, captured
  /// synchronously when a checkpoint triggers.
  void set_snapshot_source(std::function<RecoveredState()> fn) {
    snapshot_ = std::move(fn);
  }

  /// Fail-stop crash: drops commit waiters and in-flight disk work, then
  /// applies the disk crash model to the unsynced tails.
  void Crash();

  /// Rebuilds state from checkpoint + log. `initial` is the node's
  /// birth state (epoch 0, initial object values); the checkpoint (if
  /// valid) replaces it and the log replays on top. Trims any torn tail
  /// so the log is appendable again.
  RecoveredState Recover(RecoveredState initial);

  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // Exposed for tests/benches.
  SimDisk& disk() { return disk_; }
  Wal& wal() { return wal_; }

  /// Checkpoint blob round-trip (exposed for tests).
  static std::vector<uint8_t> EncodeCheckpoint(const RecoveredState& state,
                                               uint64_t covered_lsn);
  static bool DecodeCheckpoint(const std::vector<uint8_t>& blob,
                               RecoveredState* state, uint64_t* covered_lsn);

 private:
  enum class RecordType : uint8_t {
    kUpdate = 1,
    kSnapshot = 2,
    kMarkStale = 3,
    kClearStale = 4,
    kEpochInstall = 5,
    kStage = 6,
    kResolve = 7,
    kPropAdd = 8,
    kPropDone = 9,
    kOpWatermark = 10,
    kDecide = 11,
    kObjectEpochInstall = 12,
  };

  /// Appends one redo record: `type`, then the fields' encoding.
  template <typename... Fs>
  void Log(RecordType type, const Fs&... fields) {
    ByteWriter w;
    Put{w}(fields...);
    wal_.Append(static_cast<uint8_t>(type), w.buffer());
  }
  void MaybeCheckpoint();
  static void ApplyRecord(RecoveredState& state, uint8_t type,
                          ByteReader& r);

  rt::Runtime* sim_;
  DurabilityOptions opt_;
  SimDisk disk_;
  SimDisk::FileId wal_file_;
  SimDisk::FileId ckpt_file_;
  Wal wal_;
  std::function<RecoveredState()> snapshot_;
  bool checkpoint_inflight_ = false;
  uint64_t opid_watermark_ = 0;
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
