#ifndef DCP_PROTOCOL_REPLICA_NODE_H_
#define DCP_PROTOCOL_REPLICA_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coterie/coterie.h"
#include "net/rpc.h"
#include "protocol/messages.h"
#include "protocol/redo.h"
#include "storage/replica_store.h"
#include "store/durable_store.h"

namespace dcp::protocol {

/// Tuning knobs for a replica node.
struct ReplicaNodeOptions {
  /// How long a *non-staged* lock may be held before a conflicting
  /// operation is allowed to steal it. Guards against coordinators that
  /// died between the lock round and 2PC prepare. Staged (prepared)
  /// locks never expire — that is 2PC's blocking nature.
  rt::Time lock_lease = 500.0;

  /// How often a prepared participant runs cooperative termination when
  /// it has not heard the transaction outcome.
  rt::Time termination_poll_interval = 60.0;

  /// Pause before re-offering propagation ("pause(some-time)" in the
  /// Propagate pseudocode) and between propagation rounds.
  rt::Time propagation_retry_delay = 25.0;

  /// Delay before a committed node starts its propagation round (lets
  /// the triggering operation's messages drain first).
  rt::Time propagation_start_delay = 5.0;

  /// Durable storage engine (simulated disk + WAL). Disabled by default:
  /// the node then models the paper's ideal persistent store (RAM state
  /// survives Crash()/Recover() untouched) and constructs no engine at
  /// all, keeping schedules byte-identical to pre-durability builds.
  store::DurabilityOptions durability;

  /// Test-only fault seeding for the end-to-end consistency audit's
  /// mutation tests (tests/audit_mutation_test.cc). All flags default to
  /// off and no production path sets them. Each flag resurrects a real
  /// bug class the protocol defends against, proving the client-history
  /// auditor would catch a regression of that defense.
  struct MutationHooks {
    /// Skip re-acquiring exclusive locks for staged (prepared) actions on
    /// recovery. A reader can then lock around an in-doubt write and
    /// return data that a globally committed transaction has already
    /// superseded — the stale-read bug RelockStaged exists to prevent.
    bool skip_relock_staged = false;

    /// Lie in lock responses to shared (read) requests: report a stale
    /// replica as current. A read quorum of entirely-stale replicas then
    /// serves old data instead of failing with kStaleData.
    bool serve_stale_reads = false;
  };
  MutationHooks mutation_hooks;
};

/// Where one object of the deployment lives: the lineage that owns it and
/// that lineage's member universe (also its epoch-0 list).
struct ObjectHome {
  LineageScope scope;
  NodeSet members;
};

/// What every replica node of a deployment is built from: the home of
/// each object, hosted or not (see BuildCatalog in protocol/placement.h).
/// A node hosts the objects whose home lists it.
using Catalog = std::map<storage::ObjectId, ObjectHome>;

/// One replica node. It hosts epoch lineages: each lineage is one epoch
/// record shared by the objects it owns. A group deployment is one
/// group-wide lineage over all K objects; a sharded one is one lineage
/// per hosted object. The node is the RPC service handling every protocol
/// message of Section 4 / the Appendix — lock ("write-request")
/// handling, 2PC participant duties for do-update / mark-stale /
/// new-epoch actions, the PropagateResponse algorithm, and the source
/// side of Propagate.
///
/// Coordinator logic (write/read/epoch-check) lives in separate
/// operation classes that run *on* a node (see operations.h).
class ReplicaNode : public net::RpcService {
 public:
  using ObjectId = storage::ObjectId;

  /// Hosts every object of `catalog` whose home lists `self`, each born
  /// with `initial_value`; each hosted lineage starts as (0, members).
  /// `pool` is the whole node pool (2PC peers and the daemon). The full
  /// catalog lets this node coordinate operations on objects it does not
  /// host.
  ReplicaNode(rt::Transport* transport, NodeId self, NodeSet pool,
              const coterie::CoterieRule* rule, Catalog catalog,
              std::vector<uint8_t> initial_value,
              ReplicaNodeOptions options = {});

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  NodeId self() const { return self_; }
  net::RpcRuntime& rpc() { return rpc_; }
  uint32_t num_objects() const {
    return static_cast<uint32_t>(objects_.size());
  }
  storage::ReplicaStore& store(ObjectId object = 0) {
    return objects_.at(object);
  }
  const storage::ReplicaStore& store(ObjectId object = 0) const {
    return objects_.at(object);
  }
  const coterie::CoterieRule& rule() const { return *rule_; }
  const NodeSet& all_nodes() const { return all_nodes_; }

  bool HostsObject(ObjectId object) const {
    return objects_.count(object) > 0;
  }
  /// Ids of the objects hosted here, ascending.
  std::vector<ObjectId> HostedObjects() const;

  /// The lineage that owns `object` and its member universe, per the
  /// catalog. Coordinator operations bound their heavy procedure — and
  /// epoch membership — by the members. An object missing from the
  /// catalog resolves to the group-wide scope over the whole pool, so an
  /// operation on it fails at the replicas with kNotFound.
  const ObjectHome& home(ObjectId object) const;
  const NodeSet& universe(ObjectId object) const {
    return home(object).members;
  }

  /// The epoch of `object`'s lineage: the record held here for a hosted
  /// object, (0, members) for one this node does not host. Coordinator
  /// operations pick their first-round quorum from it; a stale guess
  /// only costs the fast path, since quorum analysis re-derives the true
  /// epoch from the lock responses.
  storage::EpochRecord epoch(ObjectId object = 0) const;
  const ReplicaNodeOptions& options() const { return options_; }
  /// The runtime hosting this node's execution context: the shared
  /// simulator on the sim backend, the node's private runtime on the
  /// socket backend.
  rt::Runtime* runtime() { return rpc_.runtime(); }

  /// Fail-stop crash: volatile state (locks, lock leases, outstanding
  /// RPCs) evaporates. Persistent state — the stores, the staged 2PC
  /// action (prepare is logged before acknowledging!), the outcome log —
  /// survives. With durability enabled, the crash also hits the simulated
  /// disk (dropping or tearing the unsynced log tail).
  void Crash();

  /// Recovery: with durability enabled, first rebuilds all persistent
  /// state from the checkpoint + log (RAM contents are discarded — only
  /// what was durable survives). Then resumes cooperative termination if
  /// a transaction was left prepared, and any pending propagation duty.
  void Recover();

  /// Allocates an id for an operation coordinated by this node. With
  /// durability on, keeps the durable id watermark ahead of the ids
  /// handed out, so recovery never re-mints a used LockOwner identity.
  uint64_t NextOperationId() {
    uint64_t id = next_operation_id_++;
    if (durable_) ReserveOperationIds();
    return id;
  }

  // --- 2PC coordinator-side bookkeeping (used by TwoPhaseCoordinator) ---

  /// Marks a transaction this node coordinates as in flight, so outcome
  /// queries can distinguish "still deciding" from "presumed abort".
  void BeginCoordinatedTx(const LockOwner& tx);
  /// The commit point: records the decision persistently and invokes
  /// `done` once it is on disk — no phase-2 message may leave before
  /// then. With durability off, `done` runs inline.
  void DecideCoordinatedTxDurable(const LockOwner& tx, TxOutcome outcome,
                                  std::function<void()> done);

  /// Forgets `tx`'s outcome once every participant acknowledged phase 2.
  /// Each logged its resolution before acking, so none can still ask, and
  /// a coordinator with no record answers presumed abort. The other
  /// participants keep theirs (a blocked peer may ask them while this
  /// node is down) until a forget notice on this node's next phase-2
  /// message to them, queued here.
  void ForgetCoordinatedTx(const LockOwner& tx, const NodeSet& participants);
  /// The forget notices queued for `participant`, handed out once: a
  /// notice whose message is lost leaves its outcome there.
  std::vector<uint64_t> TakeForgetNotices(NodeId participant);

  TxOutcome LookupOutcome(const LockOwner& tx) const;

  /// Replicas this node still owes propagation to for `object`.
  NodeSet pending_propagation(ObjectId object = 0) const;

  /// Enqueues propagation duty (also used by epoch-change commits).
  void AddPropagationTargets(ObjectId object, const NodeSet& targets);

  /// When another node last polled the epoch of `object`'s lineage here;
  /// 0 if none has since birth or the last crash (the time is volatile).
  /// The epoch daemon's duty rule reads polls as the heartbeat of the
  /// lineage's checker.
  rt::Time last_peer_poll(ObjectId object) const;

  /// True iff any 2PC participant action is prepared-but-undecided here.
  bool has_staged_transaction() const { return !staged_.empty(); }

  /// The durable engine, or nullptr with durability off.
  store::DurableStore* durable_store() { return durable_.get(); }

  /// Writes this node's persistent state as a checkpoint body: the redo
  /// records that rebuild it from the node's birth state.
  void WriteCheckpoint(store::ByteWriter& w) const;

  /// The prepared 2PC actions and the outcomes recorded here, keyed by
  /// (coordinator, operation id).
  using TxKey = std::pair<NodeId, uint64_t>;
  const std::map<TxKey, redo::Stage>& staged() const { return staged_; }
  const std::map<TxKey, TxOutcome>& outcomes() const { return outcomes_; }

  /// True iff every lock held in any hosted store is listed in its
  /// owner's lock record. Holds at all times; the invariant checkers
  /// assert it at quiescence.
  bool LockIndexConsistent() const;
  /// Owners that currently have a lock record at this node.
  size_t lock_record_count() const { return lock_records_.size(); }

  // net::RpcService:
  [[nodiscard]]
  Result<net::PayloadPtr> HandleRequest(NodeId from, const std::string& type,
                                        const net::PayloadPtr& request) override;
  /// Durable-before-ack: requests whose handler mutated persistent state
  /// (prepare, commit, abort, propagated data) are acknowledged only
  /// after the log records reach the disk. Everything else — and every
  /// request with durability off — responds inline.
  void HandleRequestAsync(NodeId from, const std::string& type,
                          const net::PayloadPtr& request,
                          net::Responder respond) override;

 private:
  static TxKey KeyOf(const LockOwner& o) {
    return {o.coordinator, o.operation_id};
  }

  /// Volatile per-owner lock record. `objects` is a superset of the
  /// objects the owner holds a lock on here (an unlock of a lock not held
  /// is a no-op), so releasing an owner costs O(objects it locked), not
  /// O(objects hosted).
  struct OwnerLocks {
    rt::Time acquired_at = 0;  ///< Last grant; starts the lock lease.
    std::vector<ObjectId> objects;
  };

  /// One hosted epoch lineage. Its record is shared with the stores of
  /// its objects, so installing an epoch is one state transition.
  struct Lineage {
    std::shared_ptr<storage::EpochRecord> epoch;
    NodeSet members;
    std::vector<ObjectId> objects;  ///< Hosted here, ascending.
    rt::Time last_peer_poll = 0;    ///< Volatile; see last_peer_poll().
  };

  /// The state tuple of one hosted replica, as reported in lock replies.
  ReplicaStateTuple StateTuple(const storage::ReplicaStore& store) const;

  /// The hosted lineage `scope` names, or null. Its record stays
  /// writable: the lineage shares it with its stores.
  const Lineage* FindLineage(const LineageScope& scope) const;

  /// The objects a staged action locks: the whole lineage an epoch
  /// install names (the change must be atomic w.r.t. every read and write
  /// of it), then each object it writes.
  std::vector<ObjectId> Footprint(const StagedAction& action) const;

  // Request handlers.
  [[nodiscard]]
  Result<net::PayloadPtr> HandleLock(NodeId from, const LockRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleUnlock(const UnlockRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleFetch(const FetchRequest& req);
  [[nodiscard]]
  Result<net::PayloadPtr> HandlePrepare(const PrepareRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleCommit(const CommitRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleAbort(const AbortRequest& req);
  [[nodiscard]]
  Result<net::PayloadPtr> HandleOutcome(const OutcomeRequest& req);
  [[nodiscard]]
  Result<net::PayloadPtr> HandleEpochPoll(NodeId from,
                                          const EpochPollRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandlePropOffer(NodeId from,
                                          const PropagationOffer& req);
  [[nodiscard]] Result<net::PayloadPtr> HandlePropData(NodeId from,
                                         const PropagationData& req);

  /// Lock one object (`store` is its replica) with lease-stealing of
  /// expired, non-staged locks. Any other conflict refuses the lock.
  [[nodiscard]]
  Status TryLock(ObjectId object, storage::ReplicaStore& store,
                 const LockOwner& owner, bool exclusive);
  bool LockIsStaged(const LockOwner& owner) const;
  /// Releases `owner`'s lock on one object and drops the object from the
  /// owner's record (and the record itself once it lists nothing).
  void ReleaseLock(ObjectId object, storage::ReplicaStore& store,
                   const LockOwner& owner);
  /// Releases every lock `owner` holds at this node.
  void UnlockEverywhere(const LockOwner& owner);

  /// Gives one redo record its meaning: the only code that does, for
  /// the live path (through Persist) and for recovery's replay alike.
  void Apply(redo::Record record);
  /// Appends `record` to the log when durability is on, then applies it.
  template <typename R>
  void Persist(R record, store::Flush flush = store::Flush::kLazy);
  /// Keeps the durable operation-id watermark at least half a stride
  /// ahead of the next id.
  void ReserveOperationIds();

  void RecordOutcome(const LockOwner& tx, TxOutcome outcome);
  /// Drops the outcomes of `coordinator`'s transactions `ids` that this
  /// node holds and has not staged (a phase-2 message's notices).
  void ForgetNoticed(NodeId coordinator, const std::vector<uint64_t>& ids);

  void CommitStaged(const LockOwner& tx);
  void AbortStaged(const LockOwner& tx);
  /// Re-acquires the exclusive locks of one in-doubt (staged) action
  /// after a crash, so readers cannot slip around it before termination.
  void RelockStaged(const redo::Stage& staged);
  void ArmTerminationTimer(const LockOwner& tx);
  void RunTerminationProtocol(const LockOwner& tx);

  void SchedulePropagation(rt::Time delay);
  void RunPropagationRound();
  void OfferPropagation(ObjectId object, NodeId target);
  bool HasPendingPropagation() const;

  /// Marks one propagation duty fulfilled (durably, when enabled).
  void FinishPropagation(ObjectId object, NodeId target);

  /// Rebuilds the persistent state from the disk: back to birth, then
  /// the checkpoint's records and the log's through Apply.
  void RestoreFromDisk();

  /// Registry handles for this node's protocol counters ("node.<id>.*"),
  /// cached at construction so increments never do a by-name lookup.
  struct NodeCounters {
    obs::Counter* locks_granted;
    obs::Counter* lock_conflicts;
    obs::Counter* lock_steals;
    obs::Counter* prepares;
    obs::Counter* commits;
    obs::Counter* aborts;
    obs::Counter* termination_polls;
    obs::Counter* presumed_aborts;
    obs::Counter* propagation_offers_sent;
    obs::Counter* propagations_completed;
    obs::Counter* propagations_received;
  };

  net::RpcRuntime rpc_;
  NodeId self_;
  Catalog catalog_;
  std::map<LineageScope, Lineage> lineages_;
  std::map<ObjectId, storage::ReplicaStore> objects_;
  NodeSet all_nodes_;
  ObjectHome unlisted_;  ///< home() of objects missing from the catalog.
  const coterie::CoterieRule* rule_;
  ReplicaNodeOptions options_;
  NodeCounters counters_;

  /// Durable engine; null with durability off. `initial_value_` is every
  /// object's birth value, which recovery resets to before replaying.
  std::unique_ptr<store::DurableStore> durable_;
  std::vector<uint8_t> initial_value_;

  // Persistent: 2PC participant + coordinator logs. Several transactions
  // may be prepared concurrently (they necessarily touch disjoint lock
  // footprints — e.g. different objects of the group); each resolves
  // independently.
  std::map<TxKey, redo::Stage> staged_;
  std::map<TxKey, TxOutcome> outcomes_;
  std::map<TxKey, bool> coordinating_;  ///< tx -> still deciding.

  // Persistent: per-object propagation duty.
  std::map<ObjectId, NodeSet> pending_propagation_;

  // Volatile.
  std::map<TxKey, OwnerLocks> lock_records_;
  /// Per participant: ids of transactions this node coordinated and
  /// forgot, not yet announced to it.
  std::map<NodeId, std::vector<uint64_t>> forget_notices_;
  bool propagation_scheduled_ = false;
  bool propagation_round_active_ = false;
  uint64_t termination_epoch_ = 0;  ///< Invalidates stale timers.

  uint64_t next_operation_id_ = 1;
  /// Ids below this may have been handed out (durability on only).
  uint64_t opid_watermark_ = 0;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_REPLICA_NODE_H_
