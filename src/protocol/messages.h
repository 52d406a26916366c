#ifndef DCP_PROTOCOL_MESSAGES_H_
#define DCP_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/message.h"
#include "runtime/runtime.h"
#include "storage/replica_store.h"
#include "storage/versioned_object.h"
#include "util/node_set.h"

namespace dcp::protocol {

using storage::EpochNumber;
using storage::LockOwner;
using storage::ObjectId;
using storage::Update;
using storage::Version;

/// Names an epoch lineage. nullopt is the group-wide lineage: every
/// object on the same node set shares one epoch (Section 2: "the epoch
/// management can be done per this whole group of data"). An object id
/// names that object's private lineage (partial replication: each object
/// has its own replica set).
using LineageScope = std::optional<ObjectId>;

/// Wire names of every request type. Also the keys under which the
/// traffic benches report per-type message counts.
namespace msg {
inline constexpr char kLock[] = "lock";            ///< write/read-request
inline constexpr char kUnlock[] = "unlock";        ///< plain lock release
inline constexpr char kFetch[] = "fetch";          ///< read data transfer
inline constexpr char kPrepare[] = "2pc-prepare";  ///< stage an action
inline constexpr char kCommit[] = "2pc-commit";
inline constexpr char kAbort[] = "2pc-abort";
inline constexpr char kOutcome[] = "2pc-outcome";  ///< termination query
inline constexpr char kEpochPoll[] = "epoch-poll";
inline constexpr char kPropOffer[] = "prop-offer";
inline constexpr char kPropData[] = "prop-data";
}  // namespace msg

/// The state tuple every replica reports (Section 4 / Appendix):
/// (node, version, dversion, stale, elist, enumber). Refers to one
/// object of the group (the group shares elist/enumber).
struct ReplicaStateTuple {
  NodeId node = kInvalidNode;
  Version version = 0;
  Version dversion = 0;
  bool stale = false;
  NodeSet elist;
  EpochNumber enumber = 0;
};

/// Per-object slice of a replica's state, reported by epoch polls (which
/// cover the whole group at once — the amortization of Section 2).
struct ObjectStateTuple {
  ObjectId object = 0;
  Version version = 0;
  Version dversion = 0;
  bool stale = false;

  friend bool operator==(const ObjectStateTuple&,
                         const ObjectStateTuple&) = default;
};

/// Lock modes: reads take shared locks, writes and epoch changes
/// exclusive ones (Lemma 2 needs read-write and write-write exclusion,
/// but concurrent reads are safe).
enum class LockMode { kShared, kExclusive };
/// The largest value of each encoded enum: the wire decoder refuses
/// anything above it (store/codec.h).
constexpr LockMode EnumMax(LockMode) { return LockMode::kExclusive; }

// --- lock / unlock / fetch -------------------------------------------------

/// "write-request" / read request: obtain a lock on one object of the
/// group and report its state. `op_started` is the coordinator's
/// operation start time; under wound-wait lock policies it is the
/// seniority that decides conflicts (0 = unknown, treated as starting
/// at arrival). A read names in `data_from` the one target that returns
/// its replica's bytes with the grant; one payload goes to every target,
/// so the request names the member rather than carrying a flag. A wire
/// trailer: a request without it encodes as before.
struct LockRequest : net::Payload {
  LockOwner owner;
  LockMode mode = LockMode::kExclusive;
  ObjectId object = 0;
  rt::Time op_started = 0;
  std::optional<NodeId> data_from;
};

/// Granted-lock response. A refused lock is an app-level Conflict error.
/// `data` holds the replica's bytes when the request named this node in
/// `data_from`, read under the lock just granted (a wire trailer).
struct LockResponse : net::Payload {
  ReplicaStateTuple state;
  std::optional<std::vector<uint8_t>> data;
};

struct UnlockRequest : net::Payload {
  LockOwner owner;
};

struct AckResponse : net::Payload {};

/// A read pulls the data from one up-to-date replica it holds a lock on
/// when the lock grant did not carry it.
struct FetchRequest : net::Payload {
  LockOwner owner;
  ObjectId object = 0;
};

struct FetchResponse : net::Payload {
  Version version = 0;
  std::vector<uint8_t> data;
};

// --- two-phase commit ------------------------------------------------------

/// Per-object part of a staged transaction.
struct ObjectAction {
  ObjectId object = 0;

  /// Apply `update` to the local object (the "do-update" branch),
  /// producing exactly `update_target_version`. A participant that
  /// resolves the transaction late — e.g. it crashed through the commit,
  /// was caught up past the target by propagation (whose source already
  /// included this update), and then learned the outcome via cooperative
  /// termination — must treat the apply as subsumed, NOT re-apply it.
  bool apply_update = false;
  Update update;
  Version update_target_version = 0;

  /// Mark the local replica stale with `desired_version` ("mark-stale").
  bool mark_stale = false;
  Version desired_version = 0;

  /// Install a complete post-write state carrying `snapshot_version`
  /// (used by the safety-threshold extension of Section 4.1 to promote a
  /// replica into the good set without a permission round, and by the
  /// baselines' total writes).
  bool install_snapshot = false;
  Version snapshot_version = 0;
  Update snapshot;

  /// Replicas this node should propagate this object to after commit
  /// (piggybacked stale list; only set for "good" participants).
  NodeSet propagate_to;
};

/// What a participant is asked to stage. One transaction covers writes
/// ("do-update" / "mark-stale" on one or more objects) and epoch changes
/// ("new-epoch" for a whole lineage plus per-object stale marking), so
/// the epoch-check cost is amortized over every object of the lineage.
struct StagedAction {
  /// Install a new epoch ("new-epoch") on the lineage `epoch_scope`
  /// names. A scoped install rides in a backward-compatible trailer of
  /// the action encoding: a group-wide one encodes byte-identically to
  /// the pre-sharding format.
  bool install_epoch = false;
  EpochNumber epoch_number = 0;
  NodeSet epoch_list;
  LineageScope epoch_scope;

  std::vector<ObjectAction> objects;
};

/// Globally-unique transaction id: the lock owner doubles as one.
struct PrepareRequest : net::Payload {
  LockOwner owner;
  StagedAction action;
  NodeSet participants;  ///< For cooperative termination.
  /// The state this participant reported to the epoch poll an install
  /// was computed from. The participant refuses the prepare if any object
  /// has moved since. Empty for writes; a wire trailer, so a write's
  /// prepare encodes as before, and never logged (the WAL stages only
  /// the action).
  std::vector<ObjectStateTuple> expect;
};

/// Phase 2. `forget` lists operation ids of earlier transactions the same
/// coordinator decided and every participant acknowledged: no participant
/// can still ask about them, so the receiver may drop their outcomes. A
/// wire trailer: phase 2 without notices encodes as before.
struct CommitRequest : net::Payload {
  LockOwner owner;
  std::vector<uint64_t> forget;
};

struct AbortRequest : net::Payload {
  LockOwner owner;
  std::vector<uint64_t> forget;
};

/// Cooperative-termination query: "what happened to transaction `owner`?"
struct OutcomeRequest : net::Payload {
  LockOwner owner;
};

enum class TxOutcome { kUnknown, kCommitted, kAborted };
constexpr TxOutcome EnumMax(TxOutcome) { return TxOutcome::kAborted; }

struct OutcomeResponse : net::Payload {
  TxOutcome outcome = TxOutcome::kUnknown;
  /// True iff the responder is the transaction coordinator. A coordinator
  /// with no record of — and no in-flight state for — the transaction
  /// implies presumed abort.
  bool is_coordinator = false;
  /// True iff the responder is the coordinator and is still deciding.
  bool in_progress = false;
};

// --- epoch checking --------------------------------------------------------

/// "epoch-checking-request": report the epoch of the lineage `scope`
/// names and the state of every object it owns here; no lock taken (the
/// subsequent epoch install is what locks, via 2PC prepare). The scope is
/// a backward-compatible wire trailer: a group-wide poll encodes
/// byte-identically to the pre-sharding format.
struct EpochPollRequest : net::Payload {
  LineageScope scope;
};

struct EpochPollResponse : net::Payload {
  NodeId node = kInvalidNode;
  EpochNumber enumber = 0;
  NodeSet elist;
  std::vector<ObjectStateTuple> objects;
};

// --- propagation -----------------------------------------------------------

/// "propagation-offer": the source's version number for one object.
/// `transfer_id` identifies this propagation attempt; the target's
/// transfer lock is held under (source, transfer_id).
struct PropagationOffer : net::Payload {
  ObjectId object = 0;
  Version source_version = 0;
  uint64_t transfer_id = 0;
};

enum class PropagationVerdict {
  kAlreadyRecovering,
  kIAmCurrent,
  kPermitted,
};
constexpr PropagationVerdict EnumMax(PropagationVerdict) {
  return PropagationVerdict::kPermitted;
}

struct PropagationOfferReply : net::Payload {
  PropagationVerdict verdict = PropagationVerdict::kIAmCurrent;
  Version target_version = 0;  ///< So the source ships exactly the gap.
};

/// The missing updates (or a full snapshot if the source's log was
/// truncated past the gap).
struct PropagationData : net::Payload {
  ObjectId object = 0;
  uint64_t transfer_id = 0;
  bool snapshot = false;
  Version snapshot_version = 0;  ///< Version the snapshot carries.
  Version first_version = 0;     ///< Version produced by updates[0].
  std::vector<Update> updates;   ///< For snapshots: one total update.
};

struct PropagationDataReply : net::Payload {
  Version new_version = 0;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_MESSAGES_H_
