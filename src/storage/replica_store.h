#ifndef DCP_STORAGE_REPLICA_STORE_H_
#define DCP_STORAGE_REPLICA_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/versioned_object.h"
#include "util/node_set.h"
#include "util/status.h"

namespace dcp::storage {

/// Epoch numbers; epoch 0 is the initial epoch containing all replicas.
using EpochNumber = uint64_t;

/// Identifies one data item within a replica group. A group of items
/// replicated on the same node set shares one epoch (Section 2: "the
/// epoch management can be done per this whole group of data").
using ObjectId = uint32_t;

/// The epoch record of one epoch lineage at one node. The ReplicaStore of
/// every object the lineage owns references the same record, so an epoch
/// change is a single state transition covering the whole lineage.
struct EpochRecord {
  EpochNumber number = 0;
  NodeSet list;
};

/// Identifies a lock-holding operation: (coordinator node, operation seq).
/// Lets late/duplicate messages be rejected instead of corrupting the lock.
struct LockOwner {
  NodeId coordinator = kInvalidNode;
  uint64_t operation_id = 0;

  bool valid() const { return coordinator != kInvalidNode; }
  friend bool operator==(const LockOwner& a, const LockOwner& b) {
    return a.coordinator == b.coordinator && a.operation_id == b.operation_id;
  }
};

/// The complete per-replica state from Section 4 of the paper:
///
///   persistent (survives crashes — fail-stop model):
///     - the data item with its version number (VersionedObject)
///     - desired version number (meaningful only while stale)
///     - stale-data flag
///     - epoch number and epoch list
///
///   volatile (lost on crash):
///     - the replica lock (held by one read/write/epoch-change operation)
///     - the locked-for-propagation bit
class ReplicaStore {
 public:
  /// All replicas start identical: version 0, epoch 0, epoch list = all
  /// nodes, not stale. This constructor gives the object a private epoch
  /// record (single-object deployment).
  ReplicaStore(NodeId self, NodeSet initial_epoch,
               std::vector<uint8_t> initial_value = {})
      : ReplicaStore(self,
                     std::make_shared<EpochRecord>(
                         EpochRecord{0, std::move(initial_epoch)}),
                     std::move(initial_value)) {}

  /// The object shares `epoch` with every other object of its lineage at
  /// this node.
  ReplicaStore(NodeId self, std::shared_ptr<EpochRecord> epoch,
               std::vector<uint8_t> initial_value)
      : self_(self),
        object_(std::move(initial_value)),
        epoch_(std::move(epoch)) {}

  NodeId self() const { return self_; }

  // --- persistent state ---
  VersionedObject& object() { return object_; }
  const VersionedObject& object() const { return object_; }

  Version version() const { return object_.version(); }
  Version desired_version() const { return desired_version_; }
  bool stale() const { return stale_; }
  EpochNumber epoch_number() const { return epoch_->number; }
  const NodeSet& epoch_list() const { return epoch_->list; }

  /// Marks this replica stale with the given desired version
  /// ("mark-stale" handler).
  void MarkStale(Version desired_version);

  /// Clears staleness after the replica has caught up.
  void ClearStale();

  /// Installs a new epoch ("new-epoch" handler; atomic at this node).
  /// This updates the whole lineage sharing the record.
  void SetEpoch(EpochNumber number, NodeSet members);

  // --- volatile state (lock table) ---
  /// Tries to take the replica lock for `owner`. Shared locks (reads) are
  /// compatible with each other; exclusive locks (writes, epoch changes)
  /// conflict with everything. Re-entrant for the same owner (same mode).
  /// Returns Conflict on incompatibility.
  [[nodiscard]] Status Lock(const LockOwner& owner, bool exclusive);
  /// Releases `owner`'s lock if held (no-op otherwise: a stale unlock
  /// from an aborted operation must not release another's lock).
  void Unlock(const LockOwner& owner);
  bool IsLocked() const {
    return exclusive_owner_.valid() || !shared_owners_.empty();
  }
  bool HoldsLock(const LockOwner& owner) const;
  const LockOwner& exclusive_owner() const { return exclusive_owner_; }
  const std::vector<LockOwner>& shared_owners() const {
    return shared_owners_;
  }

  bool locked_for_propagation() const { return locked_for_propagation_; }
  void set_locked_for_propagation(bool v) { locked_for_propagation_ = v; }

  /// Fail-stop crash: volatile state (locks) evaporates; persistent state
  /// survives to recovery.
  void Crash();

  /// Overwrites the persistent slice wholesale (recovery resets each
  /// replica to birth this way before replaying). Volatile state must
  /// already be clear (post-Crash); the shared epoch record is reset
  /// separately, once per lineage.
  void RestorePersistent(VersionedObject object, bool stale,
                         Version desired_version) {
    object_ = std::move(object);
    stale_ = stale;
    desired_version_ = desired_version;
  }

  /// One-line state summary for logs and debugging.
  std::string DebugString() const;

 private:
  NodeId self_;

  // Persistent.
  VersionedObject object_;
  Version desired_version_ = 0;
  bool stale_ = false;
  std::shared_ptr<EpochRecord> epoch_;  // Shared across the lineage.

  // Volatile.
  LockOwner exclusive_owner_;
  std::vector<LockOwner> shared_owners_;
  bool locked_for_propagation_ = false;
};

}  // namespace dcp::storage

#endif  // DCP_STORAGE_REPLICA_STORE_H_
