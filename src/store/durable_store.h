#ifndef DCP_STORE_DURABLE_STORE_H_
#define DCP_STORE_DURABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "storage/replica_store.h"
#include "storage/versioned_object.h"
#include "store/codec.h"
#include "store/sim_disk.h"
#include "store/wal.h"

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

/// The checkpoint image: everything a replica node must reconstruct
/// after a crash. Recovery starts from it (or from the node's birth
/// state, epoch 0 and version 0, when no checkpoint survives) and replays
/// the log records after it.
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
/// simulated disk, plus an atomically-replaced checkpoint file. It holds
/// bytes only; the records and their meaning are the protocol layer's
/// (protocol/redo.h).
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
  /// barrier.
  void Append(uint8_t type, const std::vector<uint8_t>& payload) {
    wal_.Append(type, payload);
  }

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

  /// Recovery: hands `image` the checkpoint image, or `birth` when no
  /// valid checkpoint survives, then hands `record` each log record the
  /// image does not cover, in log order. Trims any torn tail so the log
  /// is appendable again.
  void Recover(RecoveredState birth,
               const std::function<void(RecoveredState)>& image,
               const std::function<void(uint8_t type, ByteReader& payload)>&
                   record);

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
  void MaybeCheckpoint();

  rt::Runtime* sim_;
  DurabilityOptions opt_;
  SimDisk disk_;
  SimDisk::FileId wal_file_;
  SimDisk::FileId ckpt_file_;
  Wal wal_;
  std::function<RecoveredState()> snapshot_;
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
