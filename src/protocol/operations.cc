#include "protocol/operations.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"
#include "protocol/two_phase.h"
#include "util/logging.h"

namespace dcp::protocol {
namespace {

using net::GatherResult;

/// The response analysis every operation performs (Appendix): the epoch
/// list of the maximum-epoch response, the maximum version among
/// non-stale responses, and the maximum desired version among stale ones.
struct Analysis {
  EpochNumber max_epoch = 0;
  NodeSet max_epoch_list;
  std::optional<Version> max_version;  ///< Empty if all responses stale.
  Version max_dversion = 0;

  /// True iff a current replica answered: some non-stale response has a
  /// version >= every stale response's desired version.
  bool HasCurrentReplica() const {
    return max_version.has_value() && *max_version >= max_dversion;
  }
};

Analysis Analyze(const TupleMap& tuples) {
  Analysis a;
  for (const auto& [node, t] : tuples) {
    if (t.enumber >= a.max_epoch) {
      a.max_epoch = t.enumber;
      a.max_epoch_list = t.elist;
    }
  }
  for (const auto& [node, t] : tuples) {
    if (t.stale) {
      a.max_dversion = std::max(a.max_dversion, t.dversion);
    } else if (!a.max_version || t.version > *a.max_version) {
      a.max_version = t.version;
    }
  }
  return a;
}

/// GOOD = non-stale responses with the maximum version; everyone else
/// responded gets marked stale.
NodeSet GoodSet(const TupleMap& tuples, Version max_version) {
  NodeSet good;
  for (const auto& [node, t] : tuples) {
    if (!t.stale && t.version == max_version) good.Insert(node);
  }
  return good;
}

/// Trace-span correlation id for an operation (same folding as the RPC
/// and 2PC layers; categories keep the id spaces apart).
uint64_t OpSpanId(const LockOwner& owner) {
  return (static_cast<uint64_t>(owner.coordinator) << 40) |
         owner.operation_id;
}

// ---------------------------------------------------------------------------
// Quorum acquisition, shared by reads and writes.
// ---------------------------------------------------------------------------

/// One object's locks under an operation's owner: the granted tuples,
/// their analysis once a usable quorum is held, whether this object went
/// through HeavyProcedure or saw a refused lock, and the replica bytes a
/// read's lock grant carried from `data_from`.
struct Acquisition {
  ObjectId object = 0;
  TupleMap held;
  Analysis analysis;
  bool heavy = false;
  bool saw_conflict = false;
  NodeId data_from = kInvalidNode;
  std::optional<std::vector<uint8_t>> data;
};

/// Classifies an acquisition that still lacks a usable quorum after
/// HeavyProcedure. A refused lock comes first: a racing writer's locks
/// may be what hid the current replicas, and callers retry only
/// conflicts. Otherwise `quorum` says whether the locked set is a quorum
/// of the newest epoch (so what is missing is a current replica); a read
/// reports that as unavailability, a write as StaleData. `where` is
/// appended to the message.
Status AcquireFailure(LockMode mode, bool quorum, bool saw_conflict,
                      const std::string& where) {
  bool write = mode == LockMode::kExclusive;
  if (saw_conflict) {
    return Status::Conflict("lock conflicts prevented a quorum" + where);
  }
  if (write && quorum) {
    return Status::StaleData("no current replica reachable" + where);
  }
  return Status::Unavailable(
      (write ? "no write quorum reachable"
             : "no read quorum with a current replica reachable") +
      where);
}

/// What reads and writes share: the coordinator, one lock owner for every
/// object the operation touches, the operation's metrics and trace span
/// ("op.<kind>.*", span "op/<kind>"), its client ops in an optional
/// history, and the per-object acquisition step of the Appendix's Write:
/// lock a quorum, analyze, and fall back to HeavyProcedure.
class QuorumOp : public std::enable_shared_from_this<QuorumOp> {
 protected:
  QuorumOp(ReplicaNode* node, LockMode mode, std::string kind,
           const std::vector<ObjectId>& objects,
           analysis::ClientHistory* history)
      : node_(node), mode_(mode), kind_(std::move(kind)), history_(history) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
    started_at_ = node_->runtime()->Now();
    span_id_ = OpSpanId(owner_);  // Fixed even if retries re-id the tx.
    acqs_.resize(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) acqs_[i].object = objects[i];
  }

  template <typename Op>
  std::shared_ptr<Op> Self() {
    return std::static_pointer_cast<Op>(shared_from_this());
  }

  /// Opens the operation's metrics and span, and records its client ops:
  /// one write per spec in `writes`, or a read of the object when there
  /// are none. Each op is its own client, since one coordinator runs
  /// many operations at once and a client's ops are sequential.
  void Begin(std::pair<std::string, std::string> tag,
             const std::vector<TxnWriteSpec>& writes = {}) {
    rt::Runtime* sim = node_->runtime();
    sim->metrics().counter("op." + kind_ + ".started")->Increment();
    sim->tracer().BeginSpan("op", kind_, node_->self(), span_id_,
                            {std::move(tag)});
    if (history_ == nullptr) return;
    if (mode_ == LockMode::kShared) {
      recorded_.push_back(history_->InvokeRead(history_->ops().size(),
                                               acqs_[0].object, started_at_));
    }
    for (const TxnWriteSpec& w : writes) {
      recorded_.push_back(history_->InvokeWrite(
          history_->ops().size(), w.object, w.update, started_at_));
    }
  }

  /// Acquires a quorum of `acqs_[idx].object` under the operation's
  /// owner: a lock multicast to the quorum the rule picks over the local
  /// epoch list, then (or at once, if `heavy`) HeavyProcedure. A shared
  /// lock round names one member to return its data with the grant: the
  /// coordinator itself when it is in the quorum (a send to self costs no
  /// network hop), else a member chosen by the quorum selector. `next`
  /// gets OK with the acquisition's analysis set, or why it failed: the
  /// quorum hint's status, or AcquireFailure's classification.
  void Acquire(size_t idx, bool heavy, std::function<void(Status)> next) {
    if (heavy) {
      StartHeavy(idx, std::move(next));
      return;
    }
    const coterie::CoterieRule& rule = node_->rule();
    const NodeSet& list = node_->epoch(acqs_[idx].object).list;
    uint64_t selector = QuorumSelector(owner_);
    Result<NodeSet> quorum = mode_ == LockMode::kExclusive
                                 ? rule.WriteQuorum(list, selector)
                                 : rule.ReadQuorum(list, selector);
    if (!quorum.ok()) {
      next(quorum.status());
      return;
    }
    std::optional<NodeId> data_from;
    if (mode_ == LockMode::kShared && !quorum->Empty()) {
      data_from = quorum->Contains(node_->self())
                      ? node_->self()
                      : quorum->NthMember(
                            static_cast<uint32_t>(selector % quorum->Size()));
    }
    LockNodes(idx, *quorum, std::move(next), data_from);
  }

  /// Every node this operation holds a lock on, across its objects.
  NodeSet Locked() const {
    NodeSet locked;
    for (const Acquisition& acq : acqs_) {
      locked = locked.Union(KeysOf(acq.held));
    }
    return locked;
  }

  /// Releases every lock, then runs `after`. Once any lock round went out
  /// the unlock multicast is sent even to an empty set, so the release
  /// always costs the same simulator step.
  void ReleaseThen(std::function<void()> after) {
    if (!sent_locks_) {
      after();
      return;
    }
    UnlockRound(node_, owner_, Locked(), std::move(after));
  }

  /// Settles the operation's metrics and trace span. An error also fails
  /// the recorded client ops; on success the subclass has already
  /// returned their results.
  void Settle(const Status& status) {
    rt::Runtime* sim = node_->runtime();
    obs::MetricsRegistry& m = sim->metrics();
    if (!status.ok()) {
      for (uint64_t id : recorded_) {
        history_->Fail(id, sim->Now(), analysis::IsDefiniteFailure(status));
      }
    }
    std::string outcome;
    if (status.ok()) {
      m.counter("op." + kind_ + ".committed")->Increment();
      m.histogram("op." + kind_ + ".latency")
          ->Observe(sim->Now() - started_at_);
      outcome = "ok";
    } else {
      m.counter("op." + kind_ + ".failed")->Increment();
      outcome = StatusCodeName(status.code());
    }
    sim->tracer().EndSpan("op", kind_, node_->self(), span_id_,
                          {{"outcome", std::move(outcome)}});
  }

  ReplicaNode* node_;
  LockMode mode_;
  std::string kind_;
  LockOwner owner_;
  uint64_t span_id_ = 0;
  rt::Time started_at_ = 0;
  std::vector<Acquisition> acqs_;
  analysis::ClientHistory* history_;
  /// The client-op ids Begin recorded: a read's, or one per write spec.
  std::vector<uint64_t> recorded_;

 private:
  /// Locks `targets` for object `idx`, folding granted tuples into its
  /// held set and keeping the data `data_from`'s grant carried, then
  /// evaluates the acquisition.
  void LockNodes(size_t idx, const NodeSet& targets,
                 std::function<void(Status)> next,
                 std::optional<NodeId> data_from = std::nullopt) {
    sent_locks_ = true;
    auto self = shared_from_this();
    LockRound(
        node_, owner_, mode_, acqs_[idx].object,
        started_at_,  // Wound-wait seniority.
        targets,
        [self, idx, data_from, next = std::move(next)](GatherResult g) mutable {
          Acquisition& acq = self->acqs_[idx];
          if (FoldGrants(g, &acq.held)) acq.saw_conflict = true;
          auto it = data_from ? g.replies.find(*data_from) : g.replies.end();
          if (it != g.replies.end() && it->second.ok()) {
            acq.data_from = *data_from;
            acq.data = net::As<LockResponse>(it->second.response).data;
          }
          self->Evaluate(idx, std::move(next));
        },
        data_from);
  }

  /// Done if the held tuples include a quorum of the maximum-epoch
  /// response's epoch list and a current replica; otherwise go heavy, or,
  /// if already heavy, fail.
  void Evaluate(size_t idx, std::function<void(Status)> next) {
    Acquisition& acq = acqs_[idx];
    acq.analysis = Analyze(acq.held);
    const NodeSet& list = acq.analysis.max_epoch_list;
    NodeSet locked = KeysOf(acq.held);
    bool quorum = !acq.held.empty() &&
                  (mode_ == LockMode::kExclusive
                       ? node_->rule().IsWriteQuorum(list, locked)
                       : node_->rule().IsReadQuorum(list, locked));
    if (quorum && acq.analysis.HasCurrentReplica()) {
      next(Status::OK());
    } else if (!acq.heavy) {
      StartHeavy(idx, std::move(next));
    } else {
      std::string where =
          acqs_.size() > 1 ? " for object " + std::to_string(acq.object)
                           : std::string();
      next(AcquireFailure(mode_, quorum, acq.saw_conflict, where));
    }
  }

  /// HeavyProcedure: extend the lock set to every replica node of the
  /// object (keeping the locks already held) and re-evaluate.
  void StartHeavy(size_t idx, std::function<void(Status)> next) {
    Acquisition& acq = acqs_[idx];
    acq.heavy = true;
    std::string heavy = "op." + kind_ + ".heavy";
    node_->runtime()->metrics().counter(heavy)->Increment();
    node_->runtime()->tracer().Instant("op", heavy, node_->self(), {});
    NodeSet remaining =
        node_->universe(acq.object).Difference(KeysOf(acq.held));
    LockNodes(idx, remaining, std::move(next));
  }

  bool sent_locks_ = false;
};

// ---------------------------------------------------------------------------
// Write: one or more objects, one 2PC.
// ---------------------------------------------------------------------------

std::vector<ObjectId> ObjectsOf(const std::vector<TxnWriteSpec>& specs) {
  std::vector<ObjectId> objects;
  for (const TxnWriteSpec& s : specs) objects.push_back(s.object);
  return objects;
}

/// Acquires a write quorum per spec (in spec order, under one lock owner,
/// so the per-node wound-wait arbitration resolves conflicts between
/// concurrent writers), then commits every update through a single 2PC
/// whose participants are the union of the per-object quorums. A
/// single-object write is the one-spec case.
class WriteOp : public QuorumOp {
 public:
  WriteOp(ReplicaNode* node, std::string kind, std::vector<TxnWriteSpec> specs,
          WriteOptions options, analysis::ClientHistory* history,
          TxnWriteDone done)
      : QuorumOp(node, LockMode::kExclusive, std::move(kind), ObjectsOf(specs),
                 history),
        specs_(std::move(specs)),
        options_(options),
        done_(std::move(done)) {}

  void Start(std::pair<std::string, std::string> tag) {
    Begin(std::move(tag), specs_);
    if (specs_.empty()) {
      Complete(Status::InvalidArgument("transactional write with no specs"));
      return;
    }
    std::set<ObjectId> seen;
    for (const TxnWriteSpec& s : specs_) {
      if (!seen.insert(s.object).second) {
        Complete(Status::InvalidArgument(
            "duplicate object " + std::to_string(s.object) +
            " in transactional write"));
        return;
      }
    }
    LockFrom(0, /*heavy=*/false);
  }

 private:
  /// Acquires spec `idx`'s object, then the next; past the last, every
  /// object holds a usable quorum and the commit runs.
  void LockFrom(size_t idx, bool heavy) {
    if (idx == acqs_.size()) {
      FetchBaseValues(0);
      return;
    }
    auto self = Self<WriteOp>();
    Acquire(idx, heavy, [self, idx, heavy](Status s) {
      if (s.ok()) {
        self->LockFrom(idx + 1, heavy);
      } else {
        self->Fail(s);
      }
    });
  }

  /// Section 4.1's safety threshold: an object whose good set is smaller
  /// than `options_.safety_threshold` promotes other locked replicas by
  /// shipping them the complete post-write state, which needs the
  /// current value. If this coordinator's replica is good, it has the
  /// value locally; otherwise fetch it from one good member (already
  /// locked by this operation, so one extra message suffices — the
  /// closest realization of the paper's "no additional rounds of message
  /// exchange"). Walks the objects from `idx`, then commits.
  void FetchBaseValues(size_t idx) {
    base_values_.resize(acqs_.size());
    for (; idx < acqs_.size(); ++idx) {
      const Acquisition& acq = acqs_[idx];
      NodeSet good = GoodSet(acq.held, *acq.analysis.max_version);
      assert(!good.Empty());
      base_values_[idx].reset();
      if (options_.safety_threshold <= good.Size()) continue;
      if (good.Contains(node_->self())) {
        base_values_[idx] = node_->store(acq.object).object().data();
        continue;
      }
      auto self = Self<WriteOp>();
      FetchRound(node_, owner_, acq.object, good.NthMember(0),
                 [self, idx](Result<ReadOutcome> r) {
                   // Promotion is best-effort; commit without it.
                   if (r.ok()) self->base_values_[idx] = std::move(r->data);
                   self->FetchBaseValues(idx + 1);
                 });
      return;
    }
    Commit();
  }

  /// Merges every object's actions into one staged action per node and
  /// runs a single 2PC over their union: "do-update" to each object's
  /// good replicas (piggybacking its stale list for propagation),
  /// "mark-stale" to the rest, and snapshots to promoted replicas.
  void Commit() {
    std::map<NodeId, StagedAction> actions;
    std::map<ObjectId, Version> versions;
    for (size_t idx = 0; idx < acqs_.size(); ++idx) {
      const Acquisition& acq = acqs_[idx];
      const Update& update = specs_[idx].update;
      Version max_version = *acq.analysis.max_version;
      Version new_version = max_version + 1;
      versions[acq.object] = new_version;
      NodeSet good = GoodSet(acq.held, max_version);
      NodeSet stale = KeysOf(acq.held).Difference(good);

      // Promote the highest-version stale replicas until the new version
      // lives on `safety_threshold` replicas. No extra permission round:
      // they are already locked by this operation.
      if (base_values_[idx].has_value()) {
        storage::VersionedObject preview(std::move(*base_values_[idx]));
        preview.Apply(update);
        std::vector<NodeId> candidates = stale.ToVector();
        std::sort(candidates.begin(), candidates.end(),
                  [&acq](NodeId x, NodeId y) {
                    return acq.held.at(x).version > acq.held.at(y).version;
                  });
        uint32_t need = options_.safety_threshold - good.Size();
        for (NodeId c : candidates) {
          if (need == 0) break;
          ObjectAction act;
          act.object = acq.object;
          act.install_snapshot = true;
          act.snapshot_version = new_version;
          act.snapshot = Update::Total(preview.data());
          actions[c].objects.push_back(std::move(act));
          stale.Erase(c);
          --need;
        }
      }
      for (NodeId g : good) {
        ObjectAction act;
        act.object = acq.object;
        act.apply_update = true;
        act.update = update;
        act.update_target_version = new_version;
        act.propagate_to = stale;  // Piggybacked stale list (Section 4.1).
        actions[g].objects.push_back(std::move(act));
      }
      for (NodeId s : stale) {
        ObjectAction act;
        act.object = acq.object;
        act.mark_stale = true;
        act.desired_version = new_version;
        actions[s].objects.push_back(std::move(act));
      }
    }

    auto self = Self<WriteOp>();
    TwoPhaseCommit::Run(
        node_, owner_, std::move(actions),
        [self, versions](Status s) {
          if (s.ok()) {
            self->Complete(TxnWriteOutcome{versions});
            return;
          }
          // "if-failed HeavyProcedure": the aborted 2PC released every
          // lock, so the heavy retry starts from scratch — under a FRESH
          // transaction id. Reusing the id would let a participant still
          // staged from the aborted round (e.g. one that crashed through
          // the abort) mistake the retry's commit decision for its own
          // and apply the stale action. Only one retry: not if any
          // object already went heavy.
          bool heavy = false;
          for (Acquisition& acq : self->acqs_) {
            heavy = heavy || acq.heavy;
            acq.held.clear();
          }
          self->owner_.operation_id = self->node_->NextOperationId();
          if (heavy) {
            self->Complete(s);
          } else {
            self->LockFrom(0, /*heavy=*/true);
          }
        });
  }

  void Fail(Status status) {
    auto self = Self<WriteOp>();
    ReleaseThen([self, status] { self->Complete(status); });
  }

  /// Single exit point: settles the client ops, metrics and span, then
  /// hands the result to the caller.
  void Complete(Result<TxnWriteOutcome> result) {
    if (result.ok()) {
      for (size_t i = 0; i < recorded_.size(); ++i) {
        history_->ReturnWrite(recorded_[i], node_->runtime()->Now(),
                              result->versions.at(specs_[i].object));
      }
    }
    Settle(result.status());
    done_(std::move(result));
  }

  std::vector<TxnWriteSpec> specs_;
  WriteOptions options_;
  TxnWriteDone done_;
  /// Per spec: the pre-write value a promotion starts from, if any.
  std::vector<std::optional<std::vector<uint8_t>>> base_values_;
};

// ---------------------------------------------------------------------------
// Read.
// ---------------------------------------------------------------------------

/// Acquires a read quorum (shared locks) for one object, takes the data
/// from the lock grant that carried it or else fetches it from one good
/// replica, and releases the locks.
class ReadOp : public QuorumOp {
 public:
  ReadOp(ReplicaNode* node, ObjectId object, analysis::ClientHistory* history,
         ReadDone done)
      : QuorumOp(node, LockMode::kShared, "read", {object}, history),
        done_(std::move(done)) {}

  void Start() {
    Begin({"object", std::to_string(acqs_[0].object)});
    auto self = Self<ReadOp>();
    Acquire(0, /*heavy=*/false, [self](Status s) {
      if (s.ok()) {
        self->Fetch();
      } else {
        self->Fail(s);
      }
    });
  }

 private:
  void Fetch() {
    Acquisition& acq = acqs_[0];
    Version version = *acq.analysis.max_version;
    NodeSet good = GoodSet(acq.held, version);
    assert(!good.Empty());
    // The grant's bytes were read under a lock still held, so when their
    // sender is good they are the current value and no fetch is needed.
    if (acq.data && good.Contains(acq.data_from)) {
      Finish(ReadOutcome{version, std::move(*acq.data)});
      return;
    }
    // The sender is behind or stale, or refused the lock: fetch instead.
    // Load sharing: rotate the fetch target across good replicas.
    NodeId target = good.NthMember(
        static_cast<uint32_t>(QuorumSelector(owner_) % good.Size()));
    auto self = Self<ReadOp>();
    FetchRound(node_, owner_, acq.object, target,
               [self, version](Result<ReadOutcome> r) {
                 if (!r.ok()) {
                   self->Fail(r.status());
                   return;
                 }
                 assert(r->version == version &&
                        "locked replica changed under a read");
                 self->Finish(std::move(r).value());
               });
  }

  void Finish(ReadOutcome out) {
    auto self = Self<ReadOp>();
    ReleaseThen([self, out = std::move(out)] { self->Complete(out); });
  }

  void Fail(Status status) {
    auto self = Self<ReadOp>();
    ReleaseThen([self, status] { self->Complete(status); });
  }

  void Complete(Result<ReadOutcome> result) {
    if (result.ok() && !recorded_.empty()) {
      history_->ReturnRead(recorded_[0], node_->runtime()->Now(),
                           result->version, result->data);
    }
    Settle(result.status());
    done_(std::move(result));
  }

  ReadDone done_;
};

// ---------------------------------------------------------------------------
// Epoch checking.
// ---------------------------------------------------------------------------

class EpochCheckOp : public std::enable_shared_from_this<EpochCheckOp> {
 public:
  /// Checks the lineage that owns `object`: polls its members and, on a
  /// membership change, installs the new epoch on that lineage.
  EpochCheckOp(ReplicaNode* node, ObjectId object, EpochCheckDone done)
      : node_(node), home_(node->home(object)), done_(std::move(done)) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
    span_id_ = OpSpanId(owner_);
  }

  void Start() {
    rt::Runtime* sim = node_->runtime();
    sim->metrics().counter("epoch.checks_started")->Increment();
    std::vector<std::pair<std::string, std::string>> tags;
    if (home_.scope) tags.push_back({"object", std::to_string(*home_.scope)});
    sim->tracer().BeginSpan("epoch", "epoch.check", node_->self(), span_id_,
                            tags);
    Poll();
  }

 private:
  void Poll() {
    auto self = shared_from_this();
    PollEpochs(node_, home_.members, home_.scope,
               [self](std::map<NodeId, EpochPollResponse> responded) {
                 self->Evaluate(std::move(responded));
               });
  }

  void Evaluate(std::map<NodeId, EpochPollResponse> responded) {
    if (responded.empty()) {
      Complete(Status::Unavailable("no replica responded to the epoch poll"));
      return;
    }
    // The epoch part of the analysis spans the lineage's members.
    TupleMap members;
    for (const auto& [node, resp] : responded) {
      ReplicaStateTuple& t = members[node];
      t.node = node;
      t.enumber = resp.enumber;
      t.elist = resp.elist;
    }
    Analysis epoch = Analyze(members);
    NodeSet new_epoch = KeysOf(members);
    if (!node_->rule().IsWriteQuorum(epoch.max_epoch_list, new_epoch)) {
      Complete(Status::Unavailable(
          "respondents do not include a write quorum of epoch " +
          std::to_string(epoch.max_epoch)));
      return;
    }
    if (new_epoch == epoch.max_epoch_list) {
      Complete(Status::OK());  // Nothing changed since the last check.
      return;
    }

    // Per-object analysis: the new epoch may only be installed if EVERY
    // object of the lineage has a current replica among the respondents.
    // (Skipping the stale marking for just one object would leave
    // obsolete non-stale replicas inside the new epoch, breaking the
    // Lemma 3 argument for that object; the pseudocode's guard is the
    // single-object special case of this rule.)
    std::map<ObjectId, TupleMap> by_object;
    for (const auto& [node, resp] : responded) {
      for (const ObjectStateTuple& o : resp.objects) {
        ReplicaStateTuple& t = by_object[o.object][node];
        t.node = node;
        t.version = o.version;
        t.dversion = o.dversion;
        t.stale = o.stale;
      }
    }
    std::map<ObjectId, std::pair<Version, NodeSet>> current;
    for (const auto& [object, tuples] : by_object) {
      Analysis a = Analyze(tuples);
      if (!a.HasCurrentReplica()) {
        Complete(Status::StaleData(
            "object " + std::to_string(object) +
            " has no current replica among respondents; epoch unchanged"));
        return;
      }
      current[object] = {*a.max_version, GoodSet(tuples, *a.max_version)};
    }

    // One 2PC installs the epoch for the whole lineage and carries each
    // object's mark-stale / propagation duty — the amortization the
    // paper promises for data items sharing a node set. The poll took no
    // locks, so each member's prepare carries the state it reported and
    // is refused if that state has moved since.
    std::map<NodeId, StagedAction> actions;
    std::map<NodeId, std::vector<ObjectStateTuple>> expect;
    for (NodeId member : new_epoch) {
      expect[member] = std::move(responded.at(member).objects);
      StagedAction act;
      act.install_epoch = true;
      act.epoch_number = epoch.max_epoch + 1;
      act.epoch_list = new_epoch;
      act.epoch_scope = home_.scope;
      for (const auto& [object, version_and_good] : current) {
        const auto& [version, good] = version_and_good;
        ObjectAction obj;
        obj.object = object;
        if (good.Contains(member)) {
          obj.propagate_to = new_epoch.Difference(good);
        } else {
          obj.mark_stale = true;
          obj.desired_version = version;
        }
        if (obj.mark_stale || !obj.propagate_to.Empty()) {
          act.objects.push_back(std::move(obj));
        }
      }
      actions[member] = std::move(act);
    }
    auto self = shared_from_this();
    TwoPhaseCommit::Run(
        node_, owner_, std::move(actions),
        [self](Status s) {
          // A member's state moved between the poll and its prepare (a
          // write committed in the gap): poll again at once, once, rather
          // than a whole check interval later. The retry is a new
          // transaction, so it takes a fresh id, as WriteOp's does.
          if (s.IsStaleData() && !self->repolled_) {
            self->repolled_ = true;
            self->owner_.operation_id = self->node_->NextOperationId();
            self->Poll();
            return;
          }
          self->Complete(s);
        },
        std::move(expect));
  }

  /// Single exit point: settles the epoch-check metrics and span.
  void Complete(Status s) {
    rt::Runtime* sim = node_->runtime();
    sim->metrics()
        .counter(s.ok() ? "epoch.checks_ok" : "epoch.checks_failed")
        ->Increment();
    std::string outcome(s.ok() ? std::string_view("ok")
                                : StatusCodeName(s.code()));
    sim->tracer().EndSpan("epoch", "epoch.check", node_->self(), span_id_,
                          {{"outcome", std::move(outcome)}});
    done_(s);
  }

  ReplicaNode* node_;
  ObjectHome home_;
  EpochCheckDone done_;
  LockOwner owner_;
  uint64_t span_id_ = 0;
  bool repolled_ = false;
};

}  // namespace

void StartWrite(ReplicaNode* node, storage::ObjectId object, Update update,
                WriteOptions options, analysis::ClientHistory* history,
                WriteDone done) {
  std::vector<TxnWriteSpec> specs{TxnWriteSpec{object, std::move(update)}};
  auto op = std::make_shared<WriteOp>(
      node, "write", std::move(specs), options, history,
      [object, done = std::move(done)](Result<TxnWriteOutcome> r) {
        if (r.ok()) {
          done(WriteOutcome{r.value().versions.at(object)});
        } else {
          done(r.status());
        }
      });
  op->Start({"object", std::to_string(object)});
}

void StartRead(ReplicaNode* node, storage::ObjectId object,
               analysis::ClientHistory* history, ReadDone done) {
  auto op = std::make_shared<ReadOp>(node, object, history, std::move(done));
  op->Start();
}

void StartEpochCheck(ReplicaNode* node, storage::ObjectId object,
                     EpochCheckDone done) {
  auto op = std::make_shared<EpochCheckOp>(node, object, std::move(done));
  op->Start();
}

void StartTxnWrite(ReplicaNode* node, std::vector<TxnWriteSpec> specs,
                   analysis::ClientHistory* history, TxnWriteDone done) {
  std::string count = std::to_string(specs.size());
  auto op = std::make_shared<WriteOp>(node, "txn", std::move(specs),
                                      WriteOptions{}, history,
                                      std::move(done));
  op->Start({"objects", std::move(count)});
}

// ---------------------------------------------------------------------------
// Coordinator rounds.
// ---------------------------------------------------------------------------

NodeSet KeysOf(const TupleMap& tuples) {
  NodeSet s;
  for (const auto& [node, tuple] : tuples) s.Insert(node);
  return s;
}

uint64_t QuorumSelector(const LockOwner& owner) {
  uint64_t x = (static_cast<uint64_t>(owner.coordinator) << 32) ^
               owner.operation_id;
  x *= 0x9E3779B97F4A7C15ULL;
  return x ^ (x >> 29);
}

void LockRound(ReplicaNode* node, const LockOwner& owner, LockMode mode,
               ObjectId object, rt::Time seniority, const NodeSet& targets,
               std::function<void(GatherResult)> done,
               std::optional<NodeId> data_from) {
  auto req = std::make_shared<LockRequest>();
  req->owner = owner;
  req->mode = mode;
  req->object = object;
  req->op_started = seniority;
  req->data_from = data_from;
  net::MulticastGather(&node->rpc(), targets, msg::kLock, std::move(req),
                       std::move(done));
}

bool FoldGrants(const GatherResult& g, TupleMap* held) {
  bool refused = false;
  for (const auto& [node, r] : g.replies) {
    if (r.ok()) {
      (*held)[node] = net::As<LockResponse>(r.response).state;
    } else if (!r.call_failed()) {
      refused = true;
    }
  }
  return refused;
}

void UnlockRound(ReplicaNode* node, const LockOwner& owner,
                 const NodeSet& targets, std::function<void()> after) {
  auto unlock = std::make_shared<UnlockRequest>();
  unlock->owner = owner;
  net::MulticastGather(&node->rpc(), targets, msg::kUnlock, std::move(unlock),
                       [after = std::move(after)](GatherResult) { after(); });
}

void FetchRound(ReplicaNode* node, const LockOwner& owner, ObjectId object,
                NodeId target, ReadDone done) {
  auto req = std::make_shared<FetchRequest>();
  req->owner = owner;
  req->object = object;
  node->rpc().Call(target, msg::kFetch, std::move(req),
                   [done = std::move(done)](net::RpcResult r) {
                     if (!r.ok()) {
                       done(r.call_failed() ? r.transport : r.app);
                       return;
                     }
                     const auto& resp = net::As<FetchResponse>(r.response);
                     done(ReadOutcome{resp.version, resp.data});
                   });
}

void PollEpochs(ReplicaNode* node, const NodeSet& targets, LineageScope scope,
                EpochPollDone done) {
  auto poll = std::make_shared<EpochPollRequest>();
  poll->scope = scope;
  net::MulticastGather(
      &node->rpc(), targets, msg::kEpochPoll, std::move(poll),
      [done = std::move(done)](GatherResult g) {
        std::map<NodeId, EpochPollResponse> responded;
        for (const auto& [n, r] : g.replies) {
          if (r.ok()) responded[n] = net::As<EpochPollResponse>(r.response);
        }
        done(std::move(responded));
      });
}

}  // namespace dcp::protocol
