#include "protocol/replica_node.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <type_traits>
#include <variant>

#include "util/logging.h"

namespace dcp::protocol {

using net::MakePayload;
using net::PayloadPtr;

ReplicaNode::ReplicaNode(rt::Transport* transport, NodeId self, NodeSet pool,
                         const coterie::CoterieRule* rule, Catalog catalog,
                         std::vector<uint8_t> initial_value,
                         ReplicaNodeOptions options)
    : rpc_(transport, self),
      self_(self),
      catalog_(std::move(catalog)),
      all_nodes_(std::move(pool)),
      unlisted_{std::nullopt, all_nodes_},
      rule_(rule),
      options_(options),
      initial_value_(std::move(initial_value)) {
  for (const auto& [id, home] : catalog_) {
    if (!home.members.Contains(self_)) continue;
    Lineage& lineage = lineages_[home.scope];
    if (!lineage.epoch) {
      lineage.epoch = std::make_shared<storage::EpochRecord>(
          storage::EpochRecord{0, home.members});
      lineage.members = home.members;
    }
    lineage.objects.push_back(id);
    objects_.emplace(id,
                     storage::ReplicaStore(self_, lineage.epoch, initial_value_));
  }
  // Duplicate-safe: the runtime's (src, rpc_id) reply cache resends the
  // remembered reply instead of re-executing these non-idempotent
  // handlers.  // dcp-lint: rpc-dedup(reply-cache)
  rpc_.set_service(this);
  if (options_.durability.enabled) {
    durable_ =
        std::make_unique<store::DurableStore>(runtime(), options_.durability);
    durable_->set_checkpoint_source(
        [this](store::ByteWriter& w) { WriteCheckpoint(w); });
  }

  obs::MetricsRegistry& m = runtime()->metrics();
  const std::string p = "node." + std::to_string(self_) + ".";
  counters_.locks_granted = m.counter(p + "locks_granted");
  counters_.lock_conflicts = m.counter(p + "lock_conflicts");
  counters_.lock_steals = m.counter(p + "lock_steals");
  counters_.prepares = m.counter(p + "prepares");
  counters_.commits = m.counter(p + "commits");
  counters_.aborts = m.counter(p + "aborts");
  counters_.termination_polls = m.counter(p + "termination_polls");
  counters_.presumed_aborts = m.counter(p + "presumed_aborts");
  counters_.propagation_offers_sent = m.counter(p + "propagation_offers_sent");
  counters_.propagations_completed = m.counter(p + "propagations_completed");
  counters_.propagations_received = m.counter(p + "propagations_received");
}

std::vector<storage::ObjectId> ReplicaNode::HostedObjects() const {
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, store] : objects_) ids.push_back(id);
  return ids;
}

const ObjectHome& ReplicaNode::home(ObjectId object) const {
  auto it = catalog_.find(object);
  return it == catalog_.end() ? unlisted_ : it->second;
}

rt::Time ReplicaNode::last_peer_poll(ObjectId object) const {
  const Lineage* lineage = FindLineage(home(object).scope);
  return lineage == nullptr ? 0 : lineage->last_peer_poll;
}

storage::EpochRecord ReplicaNode::epoch(ObjectId object) const {
  auto it = objects_.find(object);
  if (it != objects_.end()) {
    return storage::EpochRecord{it->second.epoch_number(),
                                it->second.epoch_list()};
  }
  return storage::EpochRecord{0, universe(object)};
}

const ReplicaNode::Lineage* ReplicaNode::FindLineage(
    const LineageScope& scope) const {
  auto it = lineages_.find(scope);
  return it == lineages_.end() ? nullptr : &it->second;
}

std::vector<storage::ObjectId> ReplicaNode::Footprint(
    const StagedAction& action) const {
  std::vector<ObjectId> footprint;
  if (action.install_epoch) {
    if (const Lineage* lineage = FindLineage(action.epoch_scope)) {
      footprint = lineage->objects;
    }
  }
  for (const ObjectAction& act : action.objects) {
    if (std::find(footprint.begin(), footprint.end(), act.object) ==
        footprint.end()) {
      footprint.push_back(act.object);
    }
  }
  return footprint;
}

void ReplicaNode::Crash() {
  rpc_.AbortAll();
  for (auto& [id, store] : objects_) store.Crash();
  lock_records_.clear();
  propagation_scheduled_ = false;
  propagation_round_active_ = false;
  ++termination_epoch_;
  // Transactions this node was coordinating die undecided. Their
  // participants resolve via presumed abort once we answer outcome
  // queries again ("no record, not deciding" => abort).
  coordinating_.clear();
  // Unsent forget notices leave their outcomes at the participants.
  forget_notices_.clear();
  for (auto& [scope, lineage] : lineages_) lineage.last_peer_poll = 0;
  if (durable_) durable_->Crash();
}

void ReplicaNode::Recover() {
  if (durable_) RestoreFromDisk();
  ++termination_epoch_;
  // In-doubt transactions keep their exclusive locks across the crash.
  // The lock table itself is volatile, but a prepared action's footprint
  // must stay guarded until the outcome is known — otherwise a reader
  // could lock around the undecided write and return the old version
  // (a stale read the history checker rightly rejects).
  for (const auto& [key, staged] : staged_) {
    if (options_.mutation_hooks.skip_relock_staged) {
      runtime()->metrics().counter("mutation.relock_skipped")->Increment();
    } else {
      RelockStaged(staged);
    }
    ArmTerminationTimer(staged.owner);
  }
  if (HasPendingPropagation()) {
    SchedulePropagation(options_.propagation_start_delay);
  }
}

void ReplicaNode::RelockStaged(const redo::Stage& staged) {
  for (ObjectId object : Footprint(staged.action)) {
    auto it = objects_.find(object);
    if (it == objects_.end()) continue;
    // Cannot conflict: the post-crash lock table is empty and staged
    // footprints are pairwise disjoint (enforced at prepare time).
    Status s = it->second.Lock(staged.owner, /*exclusive=*/true);
    assert(s.ok() && "staged footprints must be disjoint");
    (void)s;
    // Staged locks never expire, so the record's lease fields stay unset.
    lock_records_[KeyOf(staged.owner)].objects.push_back(object);
  }
}

namespace {

/// What an epoch poll reports for one object, and what an install's
/// prepare expects to find still.
ObjectStateTuple PolledState(ObjectId id, const storage::ReplicaStore& store) {
  return ObjectStateTuple{id, store.version(), store.desired_version(),
                          store.stale()};
}

}  // namespace

void ReplicaNode::WriteCheckpoint(store::ByteWriter& w) const {
  // One record per piece of persistent state; Apply over the birth state
  // rebuilds it (an epoch never goes back, a snapshot installs only when
  // newer). Birth is not stale, so a current replica needs no MarkStale.
  redo::CheckpointWriter out(w);
  for (const auto& [scope, lineage] : lineages_) {
    const storage::EpochRecord& epoch = *lineage.epoch;
    if (scope) {
      out.Add(redo::ObjectEpochInstall{*scope, epoch.number, epoch.list});
    } else {
      out.Add(redo::EpochInstall{epoch.number, epoch.list});
    }
  }
  for (const auto& [id, replica] : objects_) {
    out.Add(redo::Snapshot{id, replica.version(), replica.object().data()});
  }
  for (const auto& [id, replica] : objects_) {
    if (replica.stale()) {
      out.Add(redo::MarkStale{id, replica.desired_version()});
    }
  }
  for (const auto& [key, staged] : staged_) out.Add(staged);
  for (const auto& [key, outcome] : outcomes_) {
    out.Add(redo::Decide{{key.first, key.second}, outcome});
  }
  for (const auto& [id, targets] : pending_propagation_) {
    if (!targets.Empty()) out.Add(redo::PropAdd{id, targets});
  }
  out.Add(redo::OpWatermark{next_operation_id_});
}

void ReplicaNode::RestoreFromDisk() {
  // Birth, as the constructor built it; the watermark is birth's next id.
  for (auto& [scope, lineage] : lineages_) {
    *lineage.epoch = storage::EpochRecord{0, lineage.members};
  }
  for (auto& [id, replica] : objects_) {
    replica.RestorePersistent(storage::VersionedObject(initial_value_),
                              /*stale=*/false, /*desired_version=*/0);
  }
  staged_.clear();
  outcomes_.clear();
  pending_propagation_.clear();
  opid_watermark_ = 1;

  auto apply = [this](redo::Record record) { Apply(std::move(record)); };
  Status s = durable_->Recover(
      [&apply](store::ByteReader& body) {
        return redo::ReadCheckpoint(body, apply);
      },
      [&apply](uint8_t type, store::ByteReader& payload) {
        if (std::optional<redo::Record> record = redo::Decode(type, payload)) {
          apply(std::move(*record));
        }
      });
  if (!s.ok()) {
    // The log prefix the checkpoint covered is gone: the node cannot
    // come back with what it acknowledged.
    DCP_LOG(kError) << "node " << self_ << " cannot recover: " << s.ToString();
    std::abort();
  }
  // A duty set the live path emptied stays behind as an empty entry; a
  // recovered node keeps none.
  std::erase_if(pending_propagation_,
                [](const auto& duty) { return duty.second.Empty(); });
  // Skip a full stride past the recovered watermark: ids minted between
  // the last durable watermark record and the crash stay retired even
  // though the record advancing past them may have been torn.
  next_operation_id_ = opid_watermark_ + redo::kOpIdStride;
  ReserveOperationIds();
}

void ReplicaNode::ReserveOperationIds() {
  // The watermark rides the lazy flush (no barrier of its own); with a
  // stride generously above the ids mintable within one flush interval,
  // a recovered node never reuses a LockOwner identity.
  if (next_operation_id_ + redo::kOpIdStride / 2 <= opid_watermark_) return;
  Persist(redo::OpWatermark{next_operation_id_ + redo::kOpIdStride});
}

template <typename R>
void ReplicaNode::Persist(R record, store::Flush flush) {
  if (durable_) redo::Append(*durable_, record, flush);
  Apply(std::move(record));
}

void ReplicaNode::Apply(redo::Record record) {
  std::visit(
      [this]<typename R>(R& r) {
        if constexpr (std::is_same_v<R, redo::Update>) {
          storage::ReplicaStore& store = objects_.at(r.object);
          // Updates apply in version order; one the object already has
          // is skipped.
          if (store.version() + 1 == r.produced) {
            store.object().Apply(std::move(r.update));
          }
        } else if constexpr (std::is_same_v<R, redo::Snapshot>) {
          storage::ReplicaStore& store = objects_.at(r.object);
          if (store.version() < r.version) {
            store.object().InstallSnapshot(
                r.version, storage::Update::Total(std::move(r.data)));
          }
        } else if constexpr (std::is_same_v<R, redo::MarkStale>) {
          objects_.at(r.object).MarkStale(r.desired);
        } else if constexpr (std::is_same_v<R, redo::ClearStale>) {
          objects_.at(r.object).ClearStale();
        } else if constexpr (std::is_same_v<R, redo::EpochInstall> ||
                             std::is_same_v<R, redo::ObjectEpochInstall>) {
          LineageScope scope;
          if constexpr (std::is_same_v<R, redo::ObjectEpochInstall>) {
            scope = r.object;
          }
          auto it = lineages_.find(scope);
          if (it == lineages_.end()) return;
          storage::EpochRecord& epoch = *it->second.epoch;
          // An epoch never goes backwards, live or replayed.
          if (r.number >= epoch.number) epoch = {r.number, std::move(r.list)};
        } else if constexpr (std::is_same_v<R, redo::Stage>) {
          staged_[KeyOf(r.owner)] = std::move(r);
        } else if constexpr (std::is_same_v<R, redo::Resolve>) {
          staged_.erase(KeyOf(r.owner));
          outcomes_[KeyOf(r.owner)] = r.outcome;
        } else if constexpr (std::is_same_v<R, redo::Decide>) {
          if (r.outcome == TxOutcome::kUnknown) {
            outcomes_.erase(KeyOf(r.owner));
          } else {
            outcomes_[KeyOf(r.owner)] = r.outcome;
          }
        } else if constexpr (std::is_same_v<R, redo::PropAdd>) {
          NodeSet& pending = pending_propagation_[r.object];
          pending = pending.Union(r.targets);
        } else if constexpr (std::is_same_v<R, redo::PropDone>) {
          pending_propagation_[r.object].Erase(r.target);
        } else {
          static_assert(std::is_same_v<R, redo::OpWatermark>);
          opid_watermark_ = std::max(opid_watermark_, r.watermark);
        }
      },
      record);
}

ReplicaStateTuple ReplicaNode::StateTuple(
    const storage::ReplicaStore& store) const {
  ReplicaStateTuple t;
  t.node = self_;
  t.version = store.version();
  t.dversion = store.desired_version();
  t.stale = store.stale();
  // The store references its lineage's record.
  t.elist = store.epoch_list();
  t.enumber = store.epoch_number();
  return t;
}

void ReplicaNode::BeginCoordinatedTx(const LockOwner& tx) {
  coordinating_[KeyOf(tx)] = true;
}

void ReplicaNode::DecideCoordinatedTxDurable(const LockOwner& tx,
                                             TxOutcome outcome,
                                             std::function<void()> done) {
  // The commit point: the decision is logged persistently before any
  // phase-2 message leaves this node.
  RecordOutcome(tx, outcome);
  coordinating_.erase(KeyOf(tx));
  if (!durable_) {
    done();
    return;
  }
  durable_->Commit(std::move(done));
}

void ReplicaNode::ForgetCoordinatedTx(const LockOwner& tx,
                                      const NodeSet& participants) {
  // Rides the next sync another record needs: lost to a crash, the
  // outcome stays, which only answers a question nobody asks.
  Persist(redo::Decide{tx, TxOutcome::kUnknown}, store::Flush::kNextSync);
  for (NodeId participant : participants) {
    if (participant != self_) {
      forget_notices_[participant].push_back(tx.operation_id);
    }
  }
}

std::vector<uint64_t> ReplicaNode::TakeForgetNotices(NodeId participant) {
  auto it = forget_notices_.find(participant);
  if (it == forget_notices_.end()) return {};
  std::vector<uint64_t> ids = std::move(it->second);
  forget_notices_.erase(it);
  return ids;
}

void ReplicaNode::ForgetNoticed(NodeId coordinator,
                                const std::vector<uint64_t>& ids) {
  for (uint64_t id : ids) {
    const TxKey key{coordinator, id};
    if (outcomes_.count(key) > 0 && staged_.count(key) == 0) {
      Persist(redo::Decide{{coordinator, id}, TxOutcome::kUnknown},
              store::Flush::kNextSync);
    }
  }
}

TxOutcome ReplicaNode::LookupOutcome(const LockOwner& tx) const {
  auto it = outcomes_.find(KeyOf(tx));
  return it == outcomes_.end() ? TxOutcome::kUnknown : it->second;
}

void ReplicaNode::RecordOutcome(const LockOwner& tx, TxOutcome outcome) {
  // Decide, not Resolve: recording an outcome must not erase a staged
  // entry — CommitStaged/AbortStaged persist the Resolve that does, after
  // their effect records.
  Persist(redo::Decide{tx, outcome});
}

bool ReplicaNode::LockIsStaged(const LockOwner& owner) const {
  return staged_.count(KeyOf(owner)) > 0;
}

Status ReplicaNode::TryLock(ObjectId object, storage::ReplicaStore& store,
                            const LockOwner& owner, bool exclusive) {
  Status s = store.Lock(owner, exclusive);
  if (!s.ok()) {
    rt::Time now = runtime()->Now();
    // Lease stealing: an expired, non-staged lock belongs to a
    // coordinator that died between its lock round and 2PC; break it.
    std::vector<LockOwner> evict;
    auto consider = [&](const LockOwner& holder) {
      if (!holder.valid() || LockIsStaged(holder)) return;
      auto it = lock_records_.find(KeyOf(holder));
      if (it == lock_records_.end() ||
          now - it->second.acquired_at >= options_.lock_lease) {
        evict.push_back(holder);
      }
    };
    consider(store.exclusive_owner());
    for (const LockOwner& holder : store.shared_owners()) consider(holder);
    for (const LockOwner& victim : evict) {
      ReleaseLock(object, store, victim);
      counters_.lock_steals->Increment();
    }
    if (!evict.empty()) s = store.Lock(owner, exclusive);
  }
  if (s.ok()) {
    OwnerLocks& record = lock_records_[KeyOf(owner)];
    record.acquired_at = runtime()->Now();
    if (std::find(record.objects.begin(), record.objects.end(), object) ==
        record.objects.end()) {
      record.objects.push_back(object);
    }
    counters_.locks_granted->Increment();
  } else {
    counters_.lock_conflicts->Increment();
  }
  return s;
}

void ReplicaNode::ReleaseLock(ObjectId object, storage::ReplicaStore& store,
                              const LockOwner& owner) {
  store.Unlock(owner);
  auto it = lock_records_.find(KeyOf(owner));
  if (it == lock_records_.end()) return;
  std::erase(it->second.objects, object);
  if (it->second.objects.empty()) lock_records_.erase(it);
}

void ReplicaNode::UnlockEverywhere(const LockOwner& owner) {
  auto it = lock_records_.find(KeyOf(owner));
  if (it == lock_records_.end()) return;
  for (ObjectId object : it->second.objects) {
    objects_.at(object).Unlock(owner);
  }
  lock_records_.erase(it);
}

bool ReplicaNode::LockIndexConsistent() const {
  auto recorded = [this](ObjectId object, const LockOwner& holder) {
    auto it = lock_records_.find(KeyOf(holder));
    return it != lock_records_.end() &&
           std::find(it->second.objects.begin(), it->second.objects.end(),
                     object) != it->second.objects.end();
  };
  for (const auto& [id, store] : objects_) {
    const LockOwner& excl = store.exclusive_owner();
    if (excl.valid() && !recorded(id, excl)) return false;
    for (const LockOwner& holder : store.shared_owners()) {
      if (!recorded(id, holder)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request dispatch.
// ---------------------------------------------------------------------------

void ReplicaNode::HandleRequestAsync(NodeId from, const std::string& type,
                                     const net::PayloadPtr& request,
                                     net::Responder respond) {
  if (!durable_) {
    respond(HandleRequest(from, type, request));
    return;
  }
  // Types whose handlers may mutate persistent state that the caller
  // relies on once acknowledged: a staged prepare, a commit/abort
  // resolution, received propagation data. Their acks wait for the log.
  const bool ack_gated = type == msg::kPrepare || type == msg::kCommit ||
                         type == msg::kAbort || type == msg::kPropData;
  const uint64_t lsn_before = durable_->end_lsn();
  Result<PayloadPtr> result = HandleRequest(from, type, request);
  if (ack_gated && durable_->end_lsn() != lsn_before) {
    durable_->Commit(
        [respond = std::move(respond), result = std::move(result)]() mutable {
          respond(std::move(result));
        });
    return;
  }
  respond(std::move(result));
}

Result<PayloadPtr> ReplicaNode::HandleRequest(NodeId from,
                                              const std::string& type,
                                              const PayloadPtr& request) {
  if (type == msg::kLock) return HandleLock(from, net::As<LockRequest>(request));
  if (type == msg::kUnlock) return HandleUnlock(net::As<UnlockRequest>(request));
  if (type == msg::kFetch) return HandleFetch(net::As<FetchRequest>(request));
  if (type == msg::kPrepare) {
    return HandlePrepare(net::As<PrepareRequest>(request));
  }
  if (type == msg::kCommit) return HandleCommit(net::As<CommitRequest>(request));
  if (type == msg::kAbort) return HandleAbort(net::As<AbortRequest>(request));
  if (type == msg::kOutcome) {
    return HandleOutcome(net::As<OutcomeRequest>(request));
  }
  if (type == msg::kEpochPoll) {
    return HandleEpochPoll(from, net::As<EpochPollRequest>(request));
  }
  if (type == msg::kPropOffer) {
    return HandlePropOffer(from, net::As<PropagationOffer>(request));
  }
  if (type == msg::kPropData) {
    return HandlePropData(from, net::As<PropagationData>(request));
  }
  return Status::InvalidArgument("unknown request type: " + type);
}

Result<PayloadPtr> ReplicaNode::HandleLock(NodeId /*from*/,
                                           const LockRequest& req) {
  auto it = objects_.find(req.object);
  if (it == objects_.end()) return Status::NotFound("no such object");
  Status s = TryLock(req.object, it->second, req.owner,
                     req.mode == LockMode::kExclusive);
  if (!s.ok()) return s;
  auto resp = std::make_shared<LockResponse>();
  resp->state = StateTuple(it->second);
  // Read under the lock just granted: no write or install can change the
  // replica before the unlock, so these are the bytes a fetch would get.
  if (req.data_from == self()) resp->data = it->second.object().data();
  if (options_.mutation_hooks.skip_relock_staged &&
      req.mode == LockMode::kShared) {
    // Count grants that the relock defense would have refused: a shared
    // lock on an object inside a prepared-but-undecided footprint.
    for (const auto& [key, staged] : staged_) {
      std::vector<ObjectId> footprint = Footprint(staged.action);
      if (std::find(footprint.begin(), footprint.end(), req.object) !=
          footprint.end()) {
        runtime()
            ->metrics()
            .counter("mutation.relock_bypassed")
            ->Increment();
        break;
      }
    }
  }
  if (options_.mutation_hooks.serve_stale_reads &&
      req.mode == LockMode::kShared && resp->state.stale) {
    resp->state.stale = false;  // Test-only lie; see MutationHooks.
    runtime()->metrics().counter("mutation.stale_lied")->Increment();
  }
  return PayloadPtr(std::move(resp));
}

Result<PayloadPtr> ReplicaNode::HandleUnlock(const UnlockRequest& req) {
  // Never release a lock pinned by a prepared transaction; the 2PC
  // outcome will release it.
  if (!LockIsStaged(req.owner)) UnlockEverywhere(req.owner);
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleFetch(const FetchRequest& req) {
  auto it = objects_.find(req.object);
  if (it == objects_.end()) return Status::NotFound("no such object");
  const storage::ReplicaStore& store = it->second;
  if (!store.HoldsLock(req.owner)) {
    return Status::Conflict("fetch without lock (lease stolen?)");
  }
  auto resp = std::make_shared<FetchResponse>();
  resp->version = store.version();
  resp->data = store.object().data();
  return PayloadPtr(std::move(resp));
}

Result<PayloadPtr> ReplicaNode::HandlePrepare(const PrepareRequest& req) {
  // Concurrent prepared transactions are fine as long as their lock
  // footprints are disjoint (the TryLock calls below enforce that);
  // e.g. writes to different objects of the group stage independently.
  if (req.action.install_epoch && !FindLineage(req.action.epoch_scope)) {
    return Status::NotFound("prepare names an unknown lineage");
  }
  // Writes already hold their exclusive lock from the lock round (lock
  // is re-entrant); epoch changes acquire theirs here. A write that no
  // longer holds one (stolen after its lease, or lost in a crash)
  // computed its action from a state another write may have moved
  // since, so it is refused. On any conflict, release what this attempt
  // acquired and refuse.
  std::vector<ObjectId> newly_locked;
  auto refuse = [&](Status s) {
    for (ObjectId locked : newly_locked) {
      ReleaseLock(locked, objects_.at(locked), req.owner);
    }
    return s;
  };
  for (ObjectId object : Footprint(req.action)) {
    auto it = objects_.find(object);
    if (it == objects_.end()) {
      return refuse(Status::NotFound("prepare names unknown object"));
    }
    bool held_before = it->second.HoldsLock(req.owner);
    if (!held_before && !req.action.install_epoch) {
      return refuse(Status::Conflict("prepare without the write's lock"));
    }
    Status s = TryLock(object, it->second, req.owner, /*exclusive=*/true);
    if (!s.ok()) return refuse(s);
    if (!held_before) newly_locked.push_back(object);
  }
  // An epoch install was computed from unlocked polls. Now that the
  // footprint is locked, refuse it if any polled object has moved since
  // (say, a write committed between the poll and this prepare).
  for (const ObjectStateTuple& polled : req.expect) {
    auto it = objects_.find(polled.object);
    if (it == objects_.end() ||
        PolledState(polled.object, it->second) != polled) {
      return refuse(Status::StaleData("object " +
                                      std::to_string(polled.object) +
                                      " changed since the epoch poll"));
    }
  }

  // Staged before acknowledged: the coordinator may count this vote.
  Persist(redo::Stage{req.owner, req.participants, req.action});
  counters_.prepares->Increment();
  ArmTerminationTimer(req.owner);
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleCommit(const CommitRequest& req) {
  if (staged_.count(KeyOf(req.owner)) > 0) {
    CommitStaged(req.owner);
  } else {
    // Duplicate or post-termination commit; remember the outcome anyway.
    RecordOutcome(req.owner, TxOutcome::kCommitted);
  }
  ForgetNoticed(req.owner.coordinator, req.forget);
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleAbort(const AbortRequest& req) {
  if (staged_.count(KeyOf(req.owner)) > 0) {
    AbortStaged(req.owner);
  } else {
    RecordOutcome(req.owner, TxOutcome::kAborted);
    UnlockEverywhere(req.owner);
  }
  ForgetNoticed(req.owner.coordinator, req.forget);
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleOutcome(const OutcomeRequest& req) {
  auto resp = std::make_shared<OutcomeResponse>();
  resp->outcome = LookupOutcome(req.owner);
  resp->is_coordinator = req.owner.coordinator == self();
  resp->in_progress =
      resp->is_coordinator && coordinating_.count(KeyOf(req.owner)) > 0;
  return PayloadPtr(std::move(resp));
}

Result<PayloadPtr> ReplicaNode::HandleEpochPoll(NodeId from,
                                                const EpochPollRequest& req) {
  auto it = lineages_.find(req.scope);
  if (it == lineages_.end()) {
    // A scoped poll for an object hosted elsewhere, or a group-wide poll
    // to a node that hosts only per-object lineages (a caller bug).
    return req.scope ? Status::NotFound("no such object")
                     : Status::InvalidArgument(
                           "node hosts no group-wide epoch lineage");
  }
  Lineage& lineage = it->second;
  if (from != self_) lineage.last_peer_poll = runtime()->Now();
  auto resp = std::make_shared<EpochPollResponse>();
  resp->node = self_;
  resp->enumber = lineage.epoch->number;
  resp->elist = lineage.epoch->list;
  for (ObjectId id : lineage.objects) {
    resp->objects.push_back(PolledState(id, objects_.at(id)));
  }
  return PayloadPtr(std::move(resp));
}

// ---------------------------------------------------------------------------
// 2PC participant: commit / abort / cooperative termination.
// ---------------------------------------------------------------------------

void ReplicaNode::CommitStaged(const LockOwner& tx) {
  auto it = staged_.find(KeyOf(tx));
  assert(it != staged_.end());
  // The entry stays staged until the Resolve below erases it; the effect
  // records take the action's updates and snapshots by move.
  StagedAction& action = it->second.action;
  RecordOutcome(tx, TxOutcome::kCommitted);
  counters_.commits->Increment();

  if (action.install_epoch && FindLineage(action.epoch_scope) != nullptr) {
    std::vector<std::pair<std::string, std::string>> tags;
    if (action.epoch_scope) {
      tags.push_back({"object", std::to_string(*action.epoch_scope)});
      Persist(redo::ObjectEpochInstall{
          *action.epoch_scope, action.epoch_number, action.epoch_list});
    } else {
      Persist(redo::EpochInstall{action.epoch_number, action.epoch_list});
    }
    tags.push_back({"number", std::to_string(action.epoch_number)});
    tags.push_back({"members", std::to_string(action.epoch_list.Size())});
    runtime()->tracer().Instant("epoch", "epoch.install", self_, tags);
  }
  for (ObjectAction& act : action.objects) {
    storage::ReplicaStore& store = objects_.at(act.object);
    if (act.apply_update) {
      // "do-update": performs the write, incrementing the version to
      // exactly the transaction's target. A replica that already reached
      // (or passed) the target — it committed late, after propagation
      // from a peer that had applied this very update caught it up —
      // must skip: re-applying would mint a phantom version with
      // out-of-order contents. (Staging pinned the version at target-1,
      // and versions never regress, so "below target-1" cannot happen.)
      assert(store.version() + 1 >= act.update_target_version);
      if (store.version() + 1 == act.update_target_version) {
        Persist(redo::Update{act.object, act.update_target_version,
                             std::move(act.update)});
        // A late commit may land while the replica is already marked
        // stale with a HIGHER desired version (a newer write committed
        // elsewhere during the gap). Clearing the flag then would tell
        // propagation sources "i-am-current" and strand the replica at
        // the lower version — only clear once the target is reached.
        if (store.stale() && store.desired_version() <= store.version()) {
          Persist(redo::ClearStale{act.object});
        }
      }
    }
    if (act.install_snapshot) {
      // Safety-threshold promotion / total write: current outright.
      // Skip if this replica already advanced to or past the snapshot
      // (same late-commit reasoning as above).
      if (store.version() < act.snapshot_version) {
        Persist(redo::Snapshot{act.object, act.snapshot_version,
                               std::move(act.snapshot.bytes)});
        // Same late-commit hazard as the update path above.
        if (store.stale() && store.desired_version() <= store.version()) {
          Persist(redo::ClearStale{act.object});
        }
      }
    }
    if (act.mark_stale) {
      // "mark-stale": desired version numbers only ever grow, and a
      // replica that already reached the desired version (late commit
      // after propagation) must not be re-marked.
      Version dv = act.desired_version;
      if (store.stale()) dv = std::max(dv, store.desired_version());
      if (store.version() < dv) {
        Persist(redo::MarkStale{act.object, dv});
        runtime()->tracer().Instant(
            "node", "node.mark_stale", self_,
            {{"object", std::to_string(act.object)},
             {"dversion", std::to_string(dv)}});
      }
    }
    if (!act.propagate_to.Empty()) {
      AddPropagationTargets(act.object, act.propagate_to);
    }
  }
  // Resolve LAST: a torn tail keeps a byte prefix, so if this record
  // survives a crash, every effect record above survived with it. The
  // converse tear (effects without resolve) leaves the staged entry for
  // cooperative termination, whose re-commit the version guards absorb.
  Persist(redo::Resolve{tx, TxOutcome::kCommitted});
  UnlockEverywhere(tx);
}

void ReplicaNode::AbortStaged(const LockOwner& tx) {
  assert(staged_.count(KeyOf(tx)) > 0);
  RecordOutcome(tx, TxOutcome::kAborted);
  counters_.aborts->Increment();
  Persist(redo::Resolve{tx, TxOutcome::kAborted});
  UnlockEverywhere(tx);
}

void ReplicaNode::ArmTerminationTimer(const LockOwner& tx) {
  uint64_t epoch = termination_epoch_;
  runtime()->Schedule(options_.termination_poll_interval,
                        [this, epoch, tx] {
                          if (epoch != termination_epoch_) return;
                          if (!rpc_.transport()->IsUp(self())) return;
                          if (staged_.count(KeyOf(tx)) == 0) return;
                          RunTerminationProtocol(tx);
                        });
}

void ReplicaNode::RunTerminationProtocol(const LockOwner& tx) {
  auto it = staged_.find(KeyOf(tx));
  assert(it != staged_.end());
  if (durable_) {
    // A recovered node may hold both the staged entry and the durable
    // outcome (the commit's Decide record survived a tear that its
    // Resolve did not). Resolve locally — no need to ask anyone.
    TxOutcome known = LookupOutcome(tx);
    if (known == TxOutcome::kCommitted) {
      CommitStaged(tx);
      return;
    }
    if (known == TxOutcome::kAborted) {
      AbortStaged(tx);
      return;
    }
  }
  counters_.termination_polls->Increment();
  NodeSet peers = it->second.participants;
  peers.Erase(self());

  auto outcome_req = std::make_shared<OutcomeRequest>();
  outcome_req->owner = tx;

  // Step 1: ask the coordinator.
  rpc_.Call(tx.coordinator, msg::kOutcome, outcome_req,
            [this, tx, peers, outcome_req](net::RpcResult r) {
              if (staged_.count(KeyOf(tx)) == 0) return;
              if (r.ok()) {
                const auto& resp = net::As<OutcomeResponse>(r.response);
                if (resp.outcome == TxOutcome::kCommitted) {
                  CommitStaged(tx);
                  return;
                }
                if (resp.outcome == TxOutcome::kAborted) {
                  AbortStaged(tx);
                  return;
                }
                if (resp.is_coordinator && !resp.in_progress) {
                  // Presumed abort: the coordinator logs its decision
                  // before sending phase 2, so "no record, not deciding"
                  // means it never committed.
                  counters_.presumed_aborts->Increment();
                  AbortStaged(tx);
                  return;
                }
                ArmTerminationTimer(tx);
                return;
              }
              // Coordinator unreachable: ask the other participants.
              net::MulticastGather(
                  &rpc_, peers, msg::kOutcome, outcome_req,
                  [this, tx](net::GatherResult g) {
                    if (staged_.count(KeyOf(tx)) == 0) return;
                    bool committed = false;
                    bool aborted = false;
                    for (const auto& [node, rr] : g.replies) {
                      if (!rr.ok()) continue;
                      const auto& resp = net::As<OutcomeResponse>(rr.response);
                      if (resp.outcome == TxOutcome::kCommitted) {
                        committed = true;
                      }
                      if (resp.outcome == TxOutcome::kAborted) aborted = true;
                    }
                    assert(!(committed && aborted) &&
                           "2PC outcome divergence");
                    if (committed) {
                      CommitStaged(tx);
                    } else if (aborted) {
                      AbortStaged(tx);
                    } else {
                      ArmTerminationTimer(tx);  // Blocked; keep polling.
                    }
                  });
            });
}

// ---------------------------------------------------------------------------
// Propagation: source side (the Propagate algorithm).
// ---------------------------------------------------------------------------

bool ReplicaNode::HasPendingPropagation() const {
  for (const auto& [object, targets] : pending_propagation_) {
    if (!targets.Empty()) return true;
  }
  return false;
}

NodeSet ReplicaNode::pending_propagation(ObjectId object) const {
  auto it = pending_propagation_.find(object);
  return it == pending_propagation_.end() ? NodeSet{} : it->second;
}

void ReplicaNode::AddPropagationTargets(ObjectId object,
                                        const NodeSet& targets) {
  NodeSet added = targets;
  added.Erase(self());
  if (!added.Empty()) Persist(redo::PropAdd{object, std::move(added)});
  if (!pending_propagation_[object].Empty()) {
    SchedulePropagation(options_.propagation_start_delay);
  }
}

void ReplicaNode::FinishPropagation(ObjectId object, NodeId target) {
  // Not ack-gated (we are the caller here); rides the lazy flush. Lost
  // to a crash, the duty survives and the next offer gets "i-am-current".
  Persist(redo::PropDone{object, target});
}

void ReplicaNode::SchedulePropagation(rt::Time delay) {
  if (propagation_scheduled_ || propagation_round_active_) return;
  propagation_scheduled_ = true;
  uint64_t epoch = termination_epoch_;
  runtime()->Schedule(delay, [this, epoch] {
    if (epoch != termination_epoch_) return;
    propagation_scheduled_ = false;
    if (!rpc_.transport()->IsUp(self())) return;
    RunPropagationRound();
  });
}

void ReplicaNode::RunPropagationRound() {
  if (propagation_round_active_) return;
  bool any_offered = false;
  bool any_pending = false;
  for (auto& [object, pending] : pending_propagation_) {
    // A stale replica cannot be a propagation source for that object; it
    // will re-earn the duty (or be offered data itself) later.
    if (objects_.at(object).stale()) {
      if (!pending.Empty()) any_pending = true;
      continue;
    }
    // Drop targets that have left the object's current epoch: they will be
    // caught up (or marked stale again) by the epoch change that re-admits
    // them. (Group mode: the store's record is the shared group record.)
    // Each drop is logged, so a recovered node owes what its live self did.
    const NodeSet& epoch_list = objects_.at(object).epoch_list();
    for (NodeId target : pending.Difference(epoch_list)) {
      Persist(redo::PropDone{object, target});
    }
    if (pending.Empty()) continue;
    any_pending = true;
    any_offered = true;
    for (NodeId target : pending) {
      OfferPropagation(object, target);
    }
  }
  if (!any_pending) return;
  if (!any_offered) {
    // Everything pending is blocked on our own staleness; retry later.
    SchedulePropagation(options_.propagation_retry_delay);
    return;
  }
  propagation_round_active_ = true;
  // Round bookkeeping: re-arm after one retry delay; completions erase
  // targets, so the next round only re-offers what is still pending.
  uint64_t epoch = termination_epoch_;
  runtime()->Schedule(options_.propagation_retry_delay, [this, epoch] {
    if (epoch != termination_epoch_) return;
    propagation_round_active_ = false;
    if (!rpc_.transport()->IsUp(self())) return;
    if (HasPendingPropagation()) {
      SchedulePropagation(options_.propagation_retry_delay);
    }
  });
}

void ReplicaNode::OfferPropagation(ObjectId object, NodeId target) {
  uint64_t transfer_id = NextOperationId();
  auto offer = std::make_shared<PropagationOffer>();
  offer->object = object;
  offer->source_version = objects_.at(object).version();
  offer->transfer_id = transfer_id;
  counters_.propagation_offers_sent->Increment();
  runtime()->tracer().Instant("prop", "prop.offer", self_,
                                {{"object", std::to_string(object)},
                                 {"target", std::to_string(target)}});

  rpc_.Call(target, msg::kPropOffer, offer,
            [this, object, target, transfer_id](net::RpcResult r) {
    if (!r.ok()) return;  // CallFailed/busy: target stays pending.
    const auto& reply = net::As<PropagationOfferReply>(r.response);
    switch (reply.verdict) {
      case PropagationVerdict::kIAmCurrent:
        FinishPropagation(object, target);
        return;
      case PropagationVerdict::kAlreadyRecovering:
        return;  // "pause(some-time)" — the next round re-offers.
      case PropagationVerdict::kPermitted:
        break;
    }
    // Ship exactly the target's gap, or a snapshot when our log no longer
    // reaches back that far (the gap would cost at least as much).
    auto data = std::make_shared<PropagationData>();
    data->object = object;
    data->transfer_id = transfer_id;
    storage::ReplicaStore& store = objects_.at(object);
    Result<std::vector<Update>> gap =
        store.object().UpdatesSince(reply.target_version);
    // Counted by name on first use, so a run without transfers registers
    // neither counter.
    if (gap.ok()) {
      data->first_version = reply.target_version + 1;
      data->updates = std::move(gap).value();
      runtime()->metrics().counter("prop.gap_transfers")->Increment();
    } else {
      data->snapshot = true;
      data->snapshot_version = store.version();
      data->updates = {store.object().Snapshot()};
      runtime()->metrics().counter("prop.snapshot_transfers")->Increment();
    }
    rpc_.Call(target, msg::kPropData, data,
              [this, object, target](net::RpcResult rr) {
                if (!rr.ok()) return;  // Stays pending; next round retries.
                FinishPropagation(object, target);
                counters_.propagations_completed->Increment();
              });
  });
}

// ---------------------------------------------------------------------------
// Propagation: target side (the PropagateResponse algorithm).
// ---------------------------------------------------------------------------

Result<PayloadPtr> ReplicaNode::HandlePropOffer(NodeId from,
                                                const PropagationOffer& req) {
  auto reply = std::make_shared<PropagationOfferReply>();
  auto it = objects_.find(req.object);
  if (it == objects_.end()) return Status::NotFound("no such object");
  storage::ReplicaStore& store = it->second;
  if (store.locked_for_propagation()) {
    reply->verdict = PropagationVerdict::kAlreadyRecovering;
    return PayloadPtr(std::move(reply));
  }
  if (!store.stale() || store.desired_version() > req.source_version) {
    // Already brought up to date, or the offered version cannot satisfy
    // our desired version ("i-am-current" covers both in the paper).
    reply->verdict = PropagationVerdict::kIAmCurrent;
    return PayloadPtr(std::move(reply));
  }
  LockOwner owner{from, req.transfer_id};
  Status s = TryLock(req.object, store, owner, /*exclusive=*/true);
  if (!s.ok()) {
    // Replica busy (a write holds the lock): have the source retry later.
    reply->verdict = PropagationVerdict::kAlreadyRecovering;
    return PayloadPtr(std::move(reply));
  }
  store.set_locked_for_propagation(true);
  // Watchdog: if the source dies between granting this offer and sending
  // the data, the transfer lock (and the locked-for-propagation bit)
  // would wedge this replica in "already-recovering" forever. Reclaim an
  // abandoned transfer after the lock lease.
  uint64_t epoch = termination_epoch_;
  ObjectId object = req.object;
  runtime()->Schedule(options_.lock_lease, [this, object, owner, epoch] {
    if (epoch != termination_epoch_) return;
    storage::ReplicaStore& st = objects_.at(object);
    if (st.locked_for_propagation() && st.HoldsLock(owner)) {
      st.set_locked_for_propagation(false);
      ReleaseLock(object, st, owner);
    }
  });
  reply->verdict = PropagationVerdict::kPermitted;
  reply->target_version = store.version();
  return PayloadPtr(std::move(reply));
}

Result<PayloadPtr> ReplicaNode::HandlePropData(NodeId from,
                                               const PropagationData& req) {
  auto it = objects_.find(req.object);
  if (it == objects_.end()) return Status::NotFound("no such object");
  storage::ReplicaStore& store = it->second;
  LockOwner owner{from, req.transfer_id};
  if (!store.locked_for_propagation() || !store.HoldsLock(owner)) {
    return Status::Conflict("no propagation in progress for this transfer");
  }
  auto release = [this, &store, &owner, &req] {
    store.set_locked_for_propagation(false);
    ReleaseLock(req.object, store, owner);
  };

  if (req.snapshot) {
    assert(req.updates.size() == 1 && req.updates[0].total);
    Persist(redo::Snapshot{req.object, req.snapshot_version,
                           req.updates[0].bytes});
  } else {
    if (req.first_version != store.version() + 1) {
      release();
      return Status::InvalidArgument(
          "propagation gap: have version " +
          std::to_string(store.version()) + ", updates start at " +
          std::to_string(req.first_version));
    }
    for (size_t i = 0; i < req.updates.size(); ++i) {
      Persist(redo::Update{req.object, req.first_version + i,
                           req.updates[i]});
    }
  }
  if (store.version() >= store.desired_version()) {
    Persist(redo::ClearStale{req.object});
    counters_.propagations_received->Increment();
    runtime()->tracer().Instant("prop", "prop.caught_up", self_,
                                  {{"object", std::to_string(req.object)},
                                   {"version",
                                    std::to_string(store.version())}});
  }
  release();
  auto reply = std::make_shared<PropagationDataReply>();
  reply->new_version = store.version();
  return PayloadPtr(std::move(reply));
}

}  // namespace dcp::protocol
