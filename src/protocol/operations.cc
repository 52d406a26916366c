#include "protocol/operations.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "net/rpc.h"
#include "protocol/two_phase.h"
#include "util/logging.h"

namespace dcp::protocol {
namespace {

using net::GatherResult;

using TupleMap = std::map<NodeId, ReplicaStateTuple>;

NodeSet KeysOf(const TupleMap& tuples) {
  NodeSet s;
  for (const auto& [node, tuple] : tuples) s.Insert(node);
  return s;
}

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

/// A selector mixing the coordinator id and operation id, so consecutive
/// operations (and different coordinators) rotate across quorums.
uint64_t SelectorFor(NodeId self, uint64_t op_id) {
  uint64_t x = (static_cast<uint64_t>(self) << 32) ^ op_id;
  x *= 0x9E3779B97F4A7C15ULL;
  return x ^ (x >> 29);
}

/// Multicasts unlock for `owner` to `targets`, then runs `after`.
void ReleaseLocks(ReplicaNode* node, const LockOwner& owner,
                  const NodeSet& targets, std::function<void()> after) {
  auto unlock = std::make_shared<UnlockRequest>();
  unlock->owner = owner;
  net::MulticastGather(&node->rpc(), targets, msg::kUnlock, unlock,
                       [after = std::move(after)](GatherResult) { after(); });
}

// ---------------------------------------------------------------------------
// Write.
// ---------------------------------------------------------------------------

class WriteOp : public std::enable_shared_from_this<WriteOp> {
 public:
  WriteOp(ReplicaNode* node, ObjectId object, Update update,
          WriteOptions options, HistoryRecorder* history, WriteDone done)
      : node_(node),
        object_(object),
        update_(std::move(update)),
        options_(options),
        history_(history),
        done_(std::move(done)) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
    started_at_ = node_->runtime()->Now();
    span_id_ = OpSpanId(owner_);  // Fixed even if retries re-id the tx.
  }

  void Start() {
    rt::Runtime* sim = node_->runtime();
    sim->metrics().counter("op.write.started")->Increment();
    sim->tracer().BeginSpan("op", "write", node_->self(), span_id_,
                            {{"object", std::to_string(object_)}});
    uint64_t selector = SelectorFor(owner_.coordinator, owner_.operation_id);
    Result<NodeSet> quorum = node_->rule().WriteQuorum(
        node_->epoch(object_).list, selector);
    if (!quorum.ok()) {
      Complete(quorum.status());
      return;
    }
    auto self = shared_from_this();
    LockNodes(*quorum, [self](bool) { self->EvaluateFirstRound(); });
  }

 private:
  /// Locks `targets` exclusively, folding granted tuples into held_.
  /// `next(saw_conflict)` runs when every target reached a terminal state.
  void LockNodes(const NodeSet& targets, std::function<void(bool)> next) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner_;
    req->mode = LockMode::kExclusive;
    req->object = object_;
    req->op_started = started_at_;  // Wound-wait seniority.
    auto self = shared_from_this();
    net::MulticastGather(
        &node_->rpc(), targets, msg::kLock, req,
        [self, next = std::move(next)](GatherResult g) {
          bool conflict = false;
          for (auto& [node, r] : g.replies) {
            if (r.ok()) {
              self->held_[node] = net::As<LockResponse>(r.response).state;
            } else if (!r.call_failed()) {
              conflict = true;
            }
          }
          self->saw_conflict_ = self->saw_conflict_ || conflict;
          next(conflict);
        });
  }

  void EvaluateFirstRound() {
    Analysis a = Analyze(held_);
    if (!held_.empty() &&
        node_->rule().IsWriteQuorum(a.max_epoch_list,
                                               KeysOf(held_)) &&
        a.HasCurrentReplica()) {
      CommitPhase(a);  // The common, failure-free case.
    } else {
      StartHeavyProcedure();
    }
  }

  /// HeavyProcedure: extend the lock set to every replica node of the
  /// object (keeping the locks already held) and re-evaluate.
  void StartHeavyProcedure() {
    heavy_ = true;
    node_->runtime()->metrics().counter("op.write.heavy")->Increment();
    node_->runtime()->tracer().Instant("op", "op.write.heavy",
                                         node_->self(), {});
    NodeSet remaining = node_->universe(object_).Difference(KeysOf(held_));
    auto self = shared_from_this();
    LockNodes(remaining, [self](bool) {
      Analysis a = Analyze(self->held_);
      const coterie::CoterieRule& rule = self->node_->rule();
      if (!self->held_.empty() &&
          rule.IsWriteQuorum(a.max_epoch_list, KeysOf(self->held_)) &&
          a.HasCurrentReplica()) {
        self->CommitPhase(a);
      } else if (!a.HasCurrentReplica() && !self->held_.empty() &&
                 rule.IsWriteQuorum(a.max_epoch_list, KeysOf(self->held_))) {
        self->Fail(Status::StaleData("no current replica reachable"));
      } else if (self->saw_conflict_) {
        self->Fail(Status::Conflict("lock conflicts prevented a quorum"));
      } else {
        self->Fail(Status::Unavailable("no write quorum reachable"));
      }
    });
  }

  void CommitPhase(const Analysis& a) {
    assert(a.max_version.has_value());
    NodeSet good = GoodSet(held_, *a.max_version);
    assert(!good.Empty());

    // The safety-threshold extension ships complete post-write state to
    // promoted replicas, which requires the current value. If this
    // coordinator's replica is good, it has the value locally; otherwise
    // fetch it from one good member (it is already locked by this
    // operation, so one extra message suffices — the closest realization
    // of the paper's "no additional rounds of message exchange").
    bool need_promotion = options_.safety_threshold > good.Size();
    if (need_promotion && !good.Contains(node_->self())) {
      auto req = std::make_shared<FetchRequest>();
      req->owner = owner_;
      req->object = object_;
      NodeId source = good.NthMember(0);
      auto self = shared_from_this();
      Analysis analysis = a;
      node_->rpc().Call(source, msg::kFetch, req,
                        [self, analysis](net::RpcResult r) {
                          if (r.ok()) {
                            self->FinishCommit(
                                analysis,
                                net::As<FetchResponse>(r.response).data);
                          } else {
                            // Promotion is best-effort; commit without it.
                            self->FinishCommit(analysis, std::nullopt);
                          }
                        });
      return;
    }
    FinishCommit(a, need_promotion
                        ? std::optional<std::vector<uint8_t>>(
                              node_->store(object_).object().data())
                        : std::nullopt);
  }

  /// Builds the per-participant actions and runs 2PC. `base_value`, when
  /// present, is the pre-write contents of a good replica, enabling
  /// safety-threshold promotion.
  void FinishCommit(const Analysis& a,
                    std::optional<std::vector<uint8_t>> base_value) {
    Version max_version = *a.max_version;
    Version new_version = max_version + 1;
    NodeSet good = GoodSet(held_, max_version);
    NodeSet stale = KeysOf(held_).Difference(good);

    // Helper: single-object staged action for this write's object.
    auto one = [this](ObjectAction object_action) {
      object_action.object = object_;
      StagedAction staged;
      staged.objects.push_back(std::move(object_action));
      return staged;
    };

    std::map<NodeId, StagedAction> actions;
    for (NodeId g : good) {
      ObjectAction act;
      act.apply_update = true;
      act.update = update_;
      act.update_target_version = new_version;
      act.propagate_to = stale;  // Piggybacked stale list (Section 4.1).
      actions[g] = one(std::move(act));
    }
    for (NodeId s : stale) {
      ObjectAction act;
      act.mark_stale = true;
      act.desired_version = new_version;
      actions[s] = one(std::move(act));
    }

    // Section 4.1 resilience extension: promote responded replicas into
    // the good set (by shipping them the complete post-write state) until
    // the new version lives on at least `safety_threshold` replicas. No
    // extra permission round: they are already locked by this operation.
    if (options_.safety_threshold > good.Size() && base_value.has_value()) {
      storage::VersionedObject preview(std::move(*base_value));
      preview.Apply(update_);
      // Promote highest-version stale/old replicas first (cheapest to
      // bring forward conceptually; all get the same snapshot).
      std::vector<NodeId> candidates = stale.ToVector();
      std::sort(candidates.begin(), candidates.end(),
                [this](NodeId x, NodeId y) {
                  return held_.at(x).version > held_.at(y).version;
                });
      uint32_t need = options_.safety_threshold - good.Size();
      for (NodeId c : candidates) {
        if (need == 0) break;
        ObjectAction act;
        act.install_snapshot = true;
        act.snapshot_version = new_version;
        act.snapshot = Update::Total(preview.data());
        actions[c] = one(std::move(act));
        stale.Erase(c);
        --need;
      }
      // Refresh the stale lists the good replicas will propagate to.
      for (NodeId g : good) {
        actions[g].objects[0].propagate_to = stale;
      }
    }

    auto self = shared_from_this();
    TwoPhaseCommit::Run(
        node_, owner_, std::move(actions),
        [self, new_version](TxOutcome outcome) {
          if (outcome == TxOutcome::kCommitted && self->history_ != nullptr) {
            HistoryRecorder::CommittedWrite w;
            w.version = new_version;
            w.update = self->update_;
            w.decided_at = self->node_->runtime()->Now();
            w.coordinator = self->node_->self();
            self->history_->RecordWriteDecision(w);
          }
        },
        [self, new_version](Status s) {
          if (s.ok()) {
            self->Complete(WriteOutcome{new_version});
            return;
          }
          // "if-failed HeavyProcedure": the aborted 2PC released every
          // lock, so the heavy retry starts from scratch — under a FRESH
          // transaction id. Reusing the id would let a participant still
          // staged from the aborted round (e.g. one that crashed through
          // the abort) mistake the retry's commit decision for its own
          // and apply the stale action.
          self->held_.clear();
          self->owner_.operation_id = self->node_->NextOperationId();
          if (!self->heavy_) {
            self->StartHeavyProcedure();
          } else {
            self->Complete(s);
          }
        });
  }

  void Fail(Status status) {
    auto self = shared_from_this();
    ReleaseLocks(node_, owner_, KeysOf(held_),
                 [self, status] { self->Complete(status); });
  }

  /// Single exit point: settles the op's metrics and trace span, then
  /// hands the result to the caller.
  void Complete(Result<WriteOutcome> result) {
    rt::Runtime* sim = node_->runtime();
    obs::MetricsRegistry& m = sim->metrics();
    std::string outcome;
    if (result.ok()) {
      m.counter("op.write.committed")->Increment();
      m.histogram("op.write.latency")->Observe(sim->Now() - started_at_);
      outcome = "ok";
    } else {
      m.counter("op.write.failed")->Increment();
      outcome = StatusCodeName(result.status().code());
    }
    sim->tracer().EndSpan("op", "write", node_->self(), span_id_,
                          {{"outcome", std::move(outcome)}});
    done_(std::move(result));
  }

  ReplicaNode* node_;
  ObjectId object_;
  Update update_;
  WriteOptions options_;
  HistoryRecorder* history_;
  WriteDone done_;
  LockOwner owner_;
  uint64_t span_id_ = 0;
  rt::Time started_at_ = 0;
  TupleMap held_;
  bool heavy_ = false;
  bool saw_conflict_ = false;
};

// ---------------------------------------------------------------------------
// Read.
// ---------------------------------------------------------------------------

class ReadOp : public std::enable_shared_from_this<ReadOp> {
 public:
  ReadOp(ReplicaNode* node, ObjectId object, HistoryRecorder* history,
         ReadDone done)
      : node_(node),
        object_(object),
        history_(history),
        done_(std::move(done)) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
    started_at_ = node_->runtime()->Now();
    span_id_ = OpSpanId(owner_);
  }

  void Start() {
    rt::Runtime* sim = node_->runtime();
    sim->metrics().counter("op.read.started")->Increment();
    sim->tracer().BeginSpan("op", "read", node_->self(), span_id_,
                            {{"object", std::to_string(object_)}});
    uint64_t selector = SelectorFor(owner_.coordinator, owner_.operation_id);
    Result<NodeSet> quorum = node_->rule().ReadQuorum(
        node_->epoch(object_).list, selector);
    if (!quorum.ok()) {
      Complete(quorum.status());
      return;
    }
    auto self = shared_from_this();
    LockNodes(*quorum, [self] {
      Analysis a = Analyze(self->held_);
      if (!self->held_.empty() &&
          self->node_->rule()
              .IsReadQuorum(a.max_epoch_list, KeysOf(self->held_)) &&
          a.HasCurrentReplica()) {
        self->Fetch(a);
      } else {
        self->StartHeavyRead();
      }
    });
  }

 private:
  void LockNodes(const NodeSet& targets, std::function<void()> next) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner_;
    req->mode = LockMode::kShared;
    req->object = object_;
    req->op_started = started_at_;  // Wound-wait seniority.
    auto self = shared_from_this();
    net::MulticastGather(&node_->rpc(), targets, msg::kLock, req,
                         [self, next = std::move(next)](GatherResult g) {
                           for (auto& [node, r] : g.replies) {
                             if (r.ok()) {
                               self->held_[node] =
                                   net::As<LockResponse>(r.response).state;
                             } else if (!r.call_failed()) {
                               self->saw_conflict_ = true;
                             }
                           }
                           next();
                         });
  }

  void StartHeavyRead() {
    heavy_ = true;
    node_->runtime()->metrics().counter("op.read.heavy")->Increment();
    node_->runtime()->tracer().Instant("op", "op.read.heavy",
                                         node_->self(), {});
    NodeSet remaining = node_->universe(object_).Difference(KeysOf(held_));
    auto self = shared_from_this();
    LockNodes(remaining, [self] {
      Analysis a = Analyze(self->held_);
      if (!self->held_.empty() &&
          self->node_->rule()
              .IsReadQuorum(a.max_epoch_list, KeysOf(self->held_)) &&
          a.HasCurrentReplica()) {
        self->Fetch(a);
      } else if (self->saw_conflict_) {
        self->Fail(Status::Conflict("lock conflicts prevented a quorum"));
      } else {
        self->Fail(Status::Unavailable("no read quorum with a current "
                                       "replica reachable"));
      }
    });
  }

  void Fetch(const Analysis& a) {
    Version version = *a.max_version;
    NodeSet good = GoodSet(held_, version);
    assert(!good.Empty());
    // Load sharing: rotate the fetch target across good replicas.
    uint64_t selector = SelectorFor(owner_.coordinator, owner_.operation_id);
    NodeId target = good.NthMember(
        static_cast<uint32_t>(selector % good.Size()));
    auto req = std::make_shared<FetchRequest>();
    req->owner = owner_;
    req->object = object_;
    auto self = shared_from_this();
    node_->rpc().Call(target, msg::kFetch, req,
                      [self, version](net::RpcResult r) {
                        if (!r.ok()) {
                          self->Fail(r.call_failed() ? r.transport : r.app);
                          return;
                        }
                        const auto& resp = net::As<FetchResponse>(r.response);
                        assert(resp.version == version &&
                               "locked replica changed under a read");
                        ReadOutcome out;
                        out.version = resp.version;
                        out.data = resp.data;
                        self->Finish(std::move(out));
                      });
  }

  void Finish(ReadOutcome out) {
    if (history_ != nullptr) {
      HistoryRecorder::CompletedRead r;
      r.version = out.version;
      r.data = out.data;
      r.started_at = started_at_;
      r.finished_at = node_->runtime()->Now();
      r.coordinator = node_->self();
      history_->RecordRead(r);
    }
    auto self = shared_from_this();
    ReleaseLocks(node_, owner_, KeysOf(held_),
                 [self, out = std::move(out)] { self->Complete(out); });
  }

  void Fail(Status status) {
    auto self = shared_from_this();
    ReleaseLocks(node_, owner_, KeysOf(held_),
                 [self, status] { self->Complete(status); });
  }

  /// Single exit point mirroring WriteOp::Complete.
  void Complete(Result<ReadOutcome> result) {
    rt::Runtime* sim = node_->runtime();
    obs::MetricsRegistry& m = sim->metrics();
    std::string outcome;
    if (result.ok()) {
      m.counter("op.read.committed")->Increment();
      m.histogram("op.read.latency")->Observe(sim->Now() - started_at_);
      outcome = "ok";
    } else {
      m.counter("op.read.failed")->Increment();
      outcome = StatusCodeName(result.status().code());
    }
    sim->tracer().EndSpan("op", "read", node_->self(), span_id_,
                          {{"outcome", std::move(outcome)}});
    done_(std::move(result));
  }

  ReplicaNode* node_;
  ObjectId object_;
  HistoryRecorder* history_;
  ReadDone done_;
  LockOwner owner_;
  uint64_t span_id_ = 0;
  rt::Time started_at_ = 0;
  TupleMap held_;
  bool heavy_ = false;
  bool saw_conflict_ = false;
};

// ---------------------------------------------------------------------------
// Multi-object transactional write.
// ---------------------------------------------------------------------------

/// Locks a write quorum per object (spec order, one lock owner), then
/// commits every update through a single 2PC over the union of the
/// quorums. The per-object lock/analyze/heavy machinery mirrors WriteOp;
/// the commit merges each object's good/stale actions into one staged
/// action per participant node.
class TxnWriteOp : public std::enable_shared_from_this<TxnWriteOp> {
 public:
  TxnWriteOp(ReplicaNode* node, std::vector<TxnWriteSpec> specs,
             HistoryLookup histories, TxnWriteDone done)
      : node_(node),
        specs_(std::move(specs)),
        histories_(std::move(histories)),
        done_(std::move(done)) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
    started_at_ = node_->runtime()->Now();
    span_id_ = OpSpanId(owner_);
    per_object_.resize(specs_.size());
  }

  void Start() {
    rt::Runtime* sim = node_->runtime();
    sim->metrics().counter("op.txn.started")->Increment();
    sim->tracer().BeginSpan(
        "op", "txn", node_->self(), span_id_,
        {{"objects", std::to_string(specs_.size())}});
    if (specs_.empty()) {
      Complete(Status::InvalidArgument("transactional write with no specs"));
      return;
    }
    for (const TxnWriteSpec& s : specs_) {
      if (seen_objects_.count(s.object) > 0) {
        Complete(Status::InvalidArgument(
            "duplicate object " + std::to_string(s.object) +
            " in transactional write"));
        return;
      }
      seen_objects_.insert(s.object);
    }
    LockObject(0);
  }

 private:
  struct PerObject {
    TupleMap held;          ///< Granted lock tuples for this object.
    Analysis analysis;      ///< Valid once the object is fully acquired.
    bool heavy = false;
  };

  /// Acquires object `idx`, then recurses to `idx + 1`; past the end,
  /// every object holds a satisfying quorum and the commit runs.
  void LockObject(size_t idx) {
    if (idx == specs_.size()) {
      Commit();
      return;
    }
    ObjectId object = specs_[idx].object;
    uint64_t selector = SelectorFor(owner_.coordinator, owner_.operation_id);
    Result<NodeSet> quorum = node_->rule().WriteQuorum(
        node_->epoch(object).list, selector);
    auto self = shared_from_this();
    if (!quorum.ok()) {
      // The hint was unusable (e.g. a degenerate epoch list); go straight
      // to the heavy path over the object's whole home set.
      StartHeavy(idx);
      return;
    }
    LockNodes(idx, *quorum, [self, idx] { self->Evaluate(idx); });
  }

  void LockNodes(size_t idx, const NodeSet& targets,
                 std::function<void()> next) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner_;
    req->mode = LockMode::kExclusive;
    req->object = specs_[idx].object;
    req->op_started = started_at_;  // Wound-wait seniority.
    auto self = shared_from_this();
    net::MulticastGather(
        &node_->rpc(), targets, msg::kLock, req,
        [self, idx, next = std::move(next)](GatherResult g) {
          for (auto& [node, r] : g.replies) {
            if (r.ok()) {
              self->per_object_[idx].held[node] =
                  net::As<LockResponse>(r.response).state;
            } else if (!r.call_failed()) {
              self->saw_conflict_ = true;
            }
          }
          next();
        });
  }

  void Evaluate(size_t idx) {
    PerObject& po = per_object_[idx];
    Analysis a = Analyze(po.held);
    ObjectId object = specs_[idx].object;
    if (!po.held.empty() &&
        node_->rule().IsWriteQuorum(a.max_epoch_list,
                                              KeysOf(po.held)) &&
        a.HasCurrentReplica()) {
      po.analysis = a;
      LockObject(idx + 1);
    } else if (!po.heavy) {
      StartHeavy(idx);
    } else if (!a.HasCurrentReplica() && !po.held.empty() &&
               node_->rule().IsWriteQuorum(a.max_epoch_list,
                                                     KeysOf(po.held))) {
      Fail(Status::StaleData("no current replica reachable for object " +
                             std::to_string(object)));
    } else if (saw_conflict_) {
      Fail(Status::Conflict("lock conflicts prevented a quorum for object " +
                            std::to_string(object)));
    } else {
      Fail(Status::Unavailable("no write quorum reachable for object " +
                               std::to_string(object)));
    }
  }

  void StartHeavy(size_t idx) {
    PerObject& po = per_object_[idx];
    po.heavy = true;
    node_->runtime()->metrics().counter("op.txn.heavy")->Increment();
    ObjectId object = specs_[idx].object;
    NodeSet remaining =
        node_->universe(object).Difference(KeysOf(po.held));
    auto self = shared_from_this();
    LockNodes(idx, remaining, [self, idx] { self->Evaluate(idx); });
  }

  /// All objects acquired: merge per-object actions into one staged
  /// action per node and run a single 2PC over their union.
  void Commit() {
    std::map<NodeId, StagedAction> actions;
    std::map<ObjectId, Version> new_versions;
    for (size_t idx = 0; idx < specs_.size(); ++idx) {
      const PerObject& po = per_object_[idx];
      ObjectId object = specs_[idx].object;
      Version max_version = *po.analysis.max_version;
      Version new_version = max_version + 1;
      new_versions[object] = new_version;
      NodeSet good = GoodSet(po.held, max_version);
      NodeSet stale = KeysOf(po.held).Difference(good);
      for (NodeId g : good) {
        ObjectAction act;
        act.object = object;
        act.apply_update = true;
        act.update = specs_[idx].update;
        act.update_target_version = new_version;
        act.propagate_to = stale;
        actions[g].objects.push_back(std::move(act));
      }
      for (NodeId s : stale) {
        ObjectAction act;
        act.object = object;
        act.mark_stale = true;
        act.desired_version = new_version;
        actions[s].objects.push_back(std::move(act));
      }
    }
    auto self = shared_from_this();
    TwoPhaseCommit::Run(
        node_, owner_, std::move(actions),
        [self, new_versions](TxOutcome outcome) {
          if (outcome != TxOutcome::kCommitted || !self->histories_) return;
          for (const TxnWriteSpec& spec : self->specs_) {
            HistoryRecorder* h = self->histories_(spec.object);
            if (h == nullptr) continue;
            HistoryRecorder::CommittedWrite w;
            w.version = new_versions.at(spec.object);
            w.update = spec.update;
            w.decided_at = self->node_->runtime()->Now();
            w.coordinator = self->node_->self();
            h->RecordWriteDecision(w);
          }
        },
        [self, new_versions](Status s) {
          if (s.ok()) {
            self->Complete(TxnWriteOutcome{new_versions});
          } else {
            // The aborted 2PC released every participant lock; the caller
            // retries the whole transaction under a fresh operation id.
            self->Complete(s);
          }
        });
  }

  /// Releases every lock acquired across all objects (one unlock per
  /// node releases all of that node's objects for this owner).
  void Fail(Status status) {
    NodeSet locked;
    for (const PerObject& po : per_object_) {
      locked = locked.Union(KeysOf(po.held));
    }
    auto self = shared_from_this();
    ReleaseLocks(node_, owner_, locked,
                 [self, status] { self->Complete(status); });
  }

  void Complete(Result<TxnWriteOutcome> result) {
    rt::Runtime* sim = node_->runtime();
    obs::MetricsRegistry& m = sim->metrics();
    std::string outcome;
    if (result.ok()) {
      m.counter("op.txn.committed")->Increment();
      m.histogram("op.txn.latency")->Observe(sim->Now() - started_at_);
      outcome = "ok";
    } else {
      m.counter("op.txn.failed")->Increment();
      outcome = StatusCodeName(result.status().code());
    }
    sim->tracer().EndSpan("op", "txn", node_->self(), span_id_,
                          {{"outcome", std::move(outcome)}});
    done_(std::move(result));
  }

  ReplicaNode* node_;
  std::vector<TxnWriteSpec> specs_;
  HistoryLookup histories_;
  TxnWriteDone done_;
  LockOwner owner_;
  uint64_t span_id_ = 0;
  rt::Time started_at_ = 0;
  std::vector<PerObject> per_object_;
  std::set<ObjectId> seen_objects_;
  bool saw_conflict_ = false;
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
    auto poll = std::make_shared<EpochPollRequest>();
    poll->scope = home_.scope;
    auto self = shared_from_this();
    net::MulticastGather(
        &node_->rpc(), home_.members, msg::kEpochPoll, poll,
        [self](GatherResult g) {
          std::map<NodeId, EpochPollResponse> responded;
          for (auto& [node, r] : g.replies) {
            if (r.ok()) {
              responded[node] = net::As<EpochPollResponse>(r.response);
            }
          }
          self->Evaluate(std::move(responded));
        });
  }

 private:
  void Evaluate(std::map<NodeId, EpochPollResponse> responded) {
    if (responded.empty()) {
      Complete(Status::Unavailable("no replica responded to the epoch poll"));
      return;
    }
    // The epoch part of the analysis spans the lineage's members.
    EpochNumber max_epoch = 0;
    NodeSet max_epoch_list;
    NodeSet new_epoch;
    for (const auto& [node, resp] : responded) {
      new_epoch.Insert(node);
      if (resp.enumber >= max_epoch) {
        max_epoch = resp.enumber;
        max_epoch_list = resp.elist;
      }
    }
    if (!node_->rule().IsWriteQuorum(max_epoch_list, new_epoch)) {
      Complete(Status::Unavailable(
          "respondents do not include a write quorum of epoch " +
          std::to_string(max_epoch)));
      return;
    }
    if (new_epoch == max_epoch_list) {
      Complete(Status::OK());  // Nothing changed since the last check.
      return;
    }

    // Per-object analysis: the new epoch may only be installed if EVERY
    // object of the lineage has a current replica among the respondents.
    // (Skipping the stale marking for just one object would leave
    // obsolete non-stale replicas inside the new epoch, breaking the
    // Lemma 3 argument for that object; the pseudocode's guard is the
    // single-object special case of this rule.)
    struct ObjectAnalysis {
      std::optional<Version> max_version;
      Version max_dversion = 0;
      NodeSet good;
    };
    std::map<ObjectId, ObjectAnalysis> by_object;
    for (const auto& [node, resp] : responded) {
      for (const ObjectStateTuple& t : resp.objects) {
        ObjectAnalysis& oa = by_object[t.object];
        if (t.stale) {
          oa.max_dversion = std::max(oa.max_dversion, t.dversion);
        } else if (!oa.max_version || t.version > *oa.max_version) {
          oa.max_version = t.version;
        }
      }
    }
    for (auto& [object, oa] : by_object) {
      if (!oa.max_version.has_value() || *oa.max_version < oa.max_dversion) {
        Complete(Status::StaleData(
            "object " + std::to_string(object) +
            " has no current replica among respondents; epoch unchanged"));
        return;
      }
      for (const auto& [node, resp] : responded) {
        for (const ObjectStateTuple& t : resp.objects) {
          if (t.object == object && !t.stale &&
              t.version == *oa.max_version) {
            oa.good.Insert(node);
          }
        }
      }
    }

    // One 2PC installs the epoch for the whole lineage and carries each
    // object's mark-stale / propagation duty — the amortization the
    // paper promises for data items sharing a node set.
    std::map<NodeId, StagedAction> actions;
    for (NodeId member : new_epoch) {
      StagedAction act;
      act.install_epoch = true;
      act.epoch_number = max_epoch + 1;
      act.epoch_list = new_epoch;
      act.epoch_scope = home_.scope;
      for (const auto& [object, oa] : by_object) {
        ObjectAction obj;
        obj.object = object;
        if (oa.good.Contains(member)) {
          obj.propagate_to = new_epoch.Difference(oa.good);
        } else {
          obj.mark_stale = true;
          obj.desired_version = *oa.max_version;
        }
        if (obj.mark_stale || !obj.propagate_to.Empty()) {
          act.objects.push_back(std::move(obj));
        }
      }
      actions[member] = std::move(act);
    }
    auto self = shared_from_this();
    TwoPhaseCommit::Run(node_, owner_, std::move(actions), nullptr,
                        [self](Status s) { self->Complete(s); });
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
};

}  // namespace

void StartWrite(ReplicaNode* node, storage::ObjectId object, Update update,
                WriteOptions options, HistoryRecorder* history,
                WriteDone done) {
  auto op = std::make_shared<WriteOp>(node, object, std::move(update),
                                      options, history, std::move(done));
  op->Start();
}

void StartRead(ReplicaNode* node, storage::ObjectId object,
               HistoryRecorder* history, ReadDone done) {
  auto op = std::make_shared<ReadOp>(node, object, history, std::move(done));
  op->Start();
}

void StartEpochCheck(ReplicaNode* node, storage::ObjectId object,
                     EpochCheckDone done) {
  auto op = std::make_shared<EpochCheckOp>(node, object, std::move(done));
  op->Start();
}

void StartTxnWrite(ReplicaNode* node, std::vector<TxnWriteSpec> specs,
                   HistoryLookup histories, TxnWriteDone done) {
  auto op = std::make_shared<TxnWriteOp>(node, std::move(specs),
                                         std::move(histories),
                                         std::move(done));
  op->Start();
}

}  // namespace dcp::protocol
