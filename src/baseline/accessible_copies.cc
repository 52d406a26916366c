#include "baseline/accessible_copies.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "baseline/baseline_op.h"

namespace dcp::baseline {
namespace {

using protocol::EpochPollResponse;
using protocol::LockMode;
using protocol::ObjectAction;
using protocol::ReadOutcome;
using protocol::ReplicaNode;
using protocol::StagedAction;
using protocol::Version;

// ---------------------------------------------------------------------------
// Write: all members of the current view.
// ---------------------------------------------------------------------------

class AcWriteOp : public BaselineOp {
 public:
  AcWriteOp(ReplicaNode* node, protocol::Update update,
            protocol::WriteDone done)
      : BaselineOp(node, LockMode::kExclusive, std::move(done), {}),
        update_(std::move(update)) {}

  void Start() {
    // The coordinator must itself believe it is in the view (an evicted
    // node has no business writing).
    view_ = node_->epoch().list;
    view_id_ = node_->epoch().number;
    if (!view_.Contains(node_->self())) {
      Done(Status::Unavailable("coordinator not in the current view"));
      return;
    }
    auto self = Self<AcWriteOp>();
    protocol::LockRound(
        node_, owner_, mode_, /*object=*/0, /*seniority=*/0, view_,
        [self](net::GatherResult g) {
          bool refused = protocol::FoldGrants(g, &self->held_);
          // Write-all discipline: EVERY view member must answer, with
          // the same view installed.
          if (self->held_.size() != self->view_.Size()) {
            self->Fail(refused ? Status::Conflict("view member busy")
                               : Status::Unavailable(
                                     "view member unreachable; run a view "
                                     "change"));
            return;
          }
          for (const auto& [n, t] : self->held_) {
            if (t.enumber != self->view_id_) {
              self->Fail(Status::Aborted("view changed during the write"));
              return;
            }
          }
          self->WriteAll();
        });
  }

 private:
  void WriteAll() {
    // All view members are current (write-all keeps them so; view
    // formation reconciled them), so a partial update applies cleanly.
    Version max_version = 0;
    for (const auto& [n, t] : held_) {
      max_version = std::max(max_version, t.version);
    }
    std::map<NodeId, StagedAction> actions;
    for (const auto& [n, t] : held_) {
      ObjectAction obj;
      obj.apply_update = true;
      obj.update = update_;
      obj.update_target_version = max_version + 1;
      StagedAction act;
      act.objects.push_back(std::move(obj));
      actions[n] = std::move(act);
    }
    Commit(std::move(actions), max_version + 1);
  }

  protocol::Update update_;
  NodeSet view_;
  storage::EpochNumber view_id_ = 0;
};

// ---------------------------------------------------------------------------
// Read: one member of the view.
// ---------------------------------------------------------------------------

class AcReadOp : public BaselineOp {
 public:
  AcReadOp(ReplicaNode* node, protocol::ReadDone done)
      : BaselineOp(node, LockMode::kShared, {}, std::move(done)) {}

  void Start() {
    NodeSet view = node_->epoch().list;
    if (!view.Contains(node_->self())) {
      Done(Status::Unavailable("coordinator not in the current view"));
      return;
    }
    // Read-one, rotated for load sharing.
    NodeId target = view.NthMember(static_cast<uint32_t>(
        (owner_.operation_id * 0x9E3779B97F4A7C15ULL) % view.Size()));
    storage::EpochNumber view_id = node_->epoch().number;
    auto self = Self<AcReadOp>();
    protocol::LockRound(
        node_, owner_, mode_, /*object=*/0, /*seniority=*/0, NodeSet({target}),
        [self, target, view_id](net::GatherResult g) {
          const net::RpcResult& r = g.replies.at(target);
          if (!r.ok()) {
            self->Done(r.call_failed() ? r.transport : r.app);
            return;
          }
          protocol::FoldGrants(g, &self->held_);
          if (self->held_.at(target).enumber != view_id) {
            self->Fail(Status::Aborted("view changed during the read"));
            return;
          }
          self->FetchAndRelease(target);
        });
  }
};

// ---------------------------------------------------------------------------
// View change.
// ---------------------------------------------------------------------------

class ViewChangeOp : public std::enable_shared_from_this<ViewChangeOp> {
 public:
  ViewChangeOp(ReplicaNode* node, protocol::EpochCheckDone done)
      : node_(node), done_(std::move(done)) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
  }

  void Start() {
    auto self = shared_from_this();
    protocol::PollEpochs(node_, node_->all_nodes(), std::nullopt,
                         [self](std::map<NodeId, EpochPollResponse> responded) {
                           self->Evaluate(std::move(responded));
                         });
  }

 private:
  void Evaluate(std::map<NodeId, EpochPollResponse> responded) {
    uint32_t threshold = AccessibilityThreshold(node_->all_nodes().Size());
    if (responded.size() < threshold) {
      done_(Status::Unavailable(
          "only " + std::to_string(responded.size()) +
          " replicas accessible; threshold is " + std::to_string(threshold)));
      return;
    }
    storage::EpochNumber max_view = 0;
    for (const auto& [n, resp] : responded) {
      new_view_.Insert(n);
      max_view = std::max(max_view, resp.enumber);
      for (const auto& t : resp.objects) {
        if (t.object == 0 && (freshest_ == kInvalidNode ||
                              t.version > max_version_)) {
          max_version_ = t.version;
          freshest_ = n;
        }
      }
    }
    if (new_view_ == node_->epoch().list &&
        max_view == node_->epoch().number) {
      done_(Status::OK());  // Nothing changed.
      return;
    }
    view_id_ = max_view + 1;
    // Synchronous reconciliation: fetch the freshest contents so the new
    // view starts uniform (the cost the paper's asynchronous propagation
    // avoids paying on the critical path).
    auto self = shared_from_this();
    protocol::LockRound(node_, owner_, LockMode::kShared, /*object=*/0,
                        /*seniority=*/0, NodeSet({freshest_}),
                        [self](net::GatherResult g) {
                          if (!g.replies.at(self->freshest_).ok()) {
                            self->done_(Status::Unavailable(
                                "freshest replica vanished"));
                            return;
                          }
                          self->Reconcile();
                        });
  }

  void Reconcile() {
    auto self = shared_from_this();
    protocol::FetchRound(
        node_, owner_, /*object=*/0, freshest_,
        [self](Result<ReadOutcome> r) {
          protocol::UnlockRound(
              self->node_, self->owner_, NodeSet({self->freshest_}),
              [self, r = std::move(r)] {
                if (r.ok()) {
                  self->Install(r->data);
                } else {
                  self->done_(
                      Status::Unavailable("reconciliation fetch failed"));
                }
              });
        });
  }

  void Install(const std::vector<uint8_t>& contents) {
    std::map<NodeId, StagedAction> actions;
    for (NodeId member : new_view_) {
      StagedAction act;
      act.install_epoch = true;
      act.epoch_number = view_id_;
      act.epoch_list = new_view_;
      ObjectAction obj;
      obj.install_snapshot = true;  // No-op for already-current members.
      obj.snapshot_version = max_version_;
      obj.snapshot = protocol::Update::Total(contents);
      act.objects.push_back(std::move(obj));
      actions[member] = std::move(act);
    }
    auto self = shared_from_this();
    protocol::TwoPhaseCommit::Run(node_, owner_, std::move(actions),
                                  [self](Status s) { self->done_(s); });
  }

  ReplicaNode* node_;
  protocol::EpochCheckDone done_;
  protocol::LockOwner owner_;
  /// The view the change installs and the replica it reconciles from.
  NodeSet new_view_;
  storage::EpochNumber view_id_ = 0;
  NodeId freshest_ = kInvalidNode;
  Version max_version_ = 0;
};

}  // namespace

uint32_t AccessibilityThreshold(uint32_t n_nodes) { return n_nodes / 2 + 1; }

void StartAccessibleWrite(protocol::ReplicaNode* node,
                          protocol::Update update, protocol::WriteDone done) {
  auto op =
      std::make_shared<AcWriteOp>(node, std::move(update), std::move(done));
  op->Start();
}

void StartAccessibleRead(protocol::ReplicaNode* node,
                         protocol::ReadDone done) {
  auto op = std::make_shared<AcReadOp>(node, std::move(done));
  op->Start();
}

void StartViewChange(protocol::ReplicaNode* node,
                     protocol::EpochCheckDone done) {
  auto op = std::make_shared<ViewChangeOp>(node, std::move(done));
  op->Start();
}

}  // namespace dcp::baseline
