#ifndef DCP_PROTOCOL_OPERATIONS_H_
#define DCP_PROTOCOL_OPERATIONS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "analysis/client_history.h"
#include "protocol/messages.h"
#include "protocol/replica_node.h"
#include "util/result.h"

namespace dcp::protocol {

/// Result of a successful write: the version it produced.
struct WriteOutcome {
  Version version = 0;
};
using WriteDone = std::function<void(Result<WriteOutcome>)>;

/// Result of a successful read.
struct ReadOutcome {
  Version version = 0;
  std::vector<uint8_t> data;
};
using ReadDone = std::function<void(Result<ReadOutcome>)>;

using EpochCheckDone = std::function<void(Status)>;

struct WriteOptions {
  /// Section 4.1's resilience extension: if fewer than this many "good"
  /// replicas would carry the new version, the coordinator additionally
  /// applies the write to other responded replicas (promoting them into
  /// the GOOD set by shipping them the full state) so that fewer than
  /// `safety_threshold` simultaneous failures can never lose the only
  /// current copy. 0 disables the extension (the paper's base protocol).
  uint32_t safety_threshold = 0;
};

/// Starts the paper's Write algorithm (Appendix) from `node` as
/// coordinator:
///
///   1. lock a write quorum over the local epoch list (the quorum
///      function spreads quorums across coordinators);
///   2. if the granted responses include a write quorum over the epoch
///      list of the maximum-epoch response *and* contain a current
///      replica (max desired version <= max version): 2PC a "do-update"
///      to the good replicas (piggybacking the stale list for
///      propagation) and "mark-stale" to the rest;
///   3. otherwise fall back to HeavyProcedure: lock *all* remaining
///      nodes, re-evaluate, and either commit as above or abort.
///
/// Lock conflicts abort the attempt with kConflict (the caller retries
/// with backoff — see Cluster::Write). `history`, if not null, records
/// the write as a client op from start to completion. `object` selects
/// the data item within the node's replica group. This is the
/// one-spec case of StartTxnWrite, reported under the `op.write.*`
/// metrics and the `op/write` span.
void StartWrite(ReplicaNode* node, storage::ObjectId object, Update update,
                WriteOptions options, analysis::ClientHistory* history,
                WriteDone done);

/// The read protocol: "similar to the write protocol except it does not
/// update any replicas" (Section 4). Locks a read quorum (shared), with
/// one named member returning its data in its grant; verifies it saw a
/// current replica; and unlocks. That is two rounds when the named member
/// is current. Otherwise (it is behind or stale, or refused the lock) the
/// read fetches the data from one good replica in between. Falls back to
/// polling all nodes when the local epoch list was out of date or no
/// current replica answered. `history` is as for StartWrite.
void StartRead(ReplicaNode* node, storage::ObjectId object,
               analysis::ClientHistory* history, ReadDone done);

/// The epoch-checking operation (Section 4.3 / Appendix CheckEpoch) on
/// the lineage that owns `object` (the group-wide lineage in a group
/// deployment, the object's own lineage when sharded): polls the
/// lineage's members; if the respondents include a write quorum over the
/// newest epoch among them and differ from it, atomically installs the
/// respondents as the lineage's new epoch (2PC), marking out-of-date
/// members stale and putting the current ones on propagation duty.
/// Independent lineages therefore diverge and heal independently.
///
/// Returns OK both when the epoch changed and when no change was needed;
/// kUnavailable when no quorum of the newest epoch responded (the
/// lineage is stuck until enough of its last epoch returns).
void StartEpochCheck(ReplicaNode* node, storage::ObjectId object,
                     EpochCheckDone done);

/// One write of a multi-object transaction.
struct TxnWriteSpec {
  storage::ObjectId object = 0;
  Update update;
};

/// Result of a committed transactional write: the version each object's
/// write produced.
struct TxnWriteOutcome {
  std::map<storage::ObjectId, Version> versions;
};
using TxnWriteDone = std::function<void(Result<TxnWriteOutcome>)>;

/// Cross-object transactional write: acquires a write quorum for every
/// object in `specs` (objects are locked in spec order under ONE lock
/// owner; a conflicting lock is refused, so concurrent transactions
/// never wait on each other), then commits all updates atomically
/// through a single 2PC whose participant set is the union of the
/// per-object quorums. Each object may live on a different replica set —
/// the coordinator routes by the node's object directory, so it need not
/// host any of them. Every object follows StartWrite's rules: an unusable
/// quorum hint fails fast with its status, HeavyProcedure extends that
/// object's lock set to its whole home set before giving up, and a 2PC
/// abort retries once on the heavy path under a fresh operation id unless
/// some object already went heavy.
///
/// On failure every acquired lock (across all objects) is released.
/// Duplicate object ids in `specs` are rejected (kInvalidArgument).
/// `history`, if not null, records one client write per spec, all over
/// the transaction's interval.
void StartTxnWrite(ReplicaNode* node, std::vector<TxnWriteSpec> specs,
                   analysis::ClientHistory* history, TxnWriteDone done);

// ---------------------------------------------------------------------------
// Coordinator rounds: the message exchanges every coordinator is built
// from, the operations above and the baselines in src/baseline alike.
// ---------------------------------------------------------------------------

/// Lock-granted replica states by node.
using TupleMap = std::map<NodeId, ReplicaStateTuple>;

/// The nodes `tuples` holds a state for.
NodeSet KeysOf(const TupleMap& tuples);

/// A quorum selector mixing the coordinator id and operation id, so
/// consecutive operations (and different coordinators) rotate across
/// quorums.
uint64_t QuorumSelector(const LockOwner& owner);

/// Multicasts `owner`'s request for a `mode` lock on `object` to
/// `targets`. `done` gets every target's reply; the grant of
/// `data_from`, if set, also carries that replica's data.
void LockRound(ReplicaNode* node, const LockOwner& owner, LockMode mode,
               ObjectId object, const NodeSet& targets,
               std::function<void(net::GatherResult)> done,
               std::optional<NodeId> data_from = std::nullopt);

/// Folds a lock round's grants into `held`. Returns true if some target
/// refused the lock (answered, but not with a grant).
bool FoldGrants(const net::GatherResult& g, TupleMap* held);

/// Multicasts the release of `owner`'s locks to `targets`, then runs
/// `after`.
void UnlockRound(ReplicaNode* node, const LockOwner& owner,
                 const NodeSet& targets, std::function<void()> after);

/// Fetches `object`'s version and data from `target`, on which `owner`
/// holds a lock. On failure `done` gets the call's status.
void FetchRound(ReplicaNode* node, const LockOwner& owner, ObjectId object,
                NodeId target, ReadDone done);

using EpochPollDone = std::function<void(std::map<NodeId, EpochPollResponse>)>;

/// Polls the epoch state of `targets` for the lineage `scope`, without
/// locks. `done` gets the replies of the nodes that answered.
void PollEpochs(ReplicaNode* node, const NodeSet& targets, LineageScope scope,
                EpochPollDone done);

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_OPERATIONS_H_
