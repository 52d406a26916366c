#ifndef DCP_BASELINE_BASELINE_OP_H_
#define DCP_BASELINE_BASELINE_OP_H_

#include <map>
#include <memory>
#include <utility>

#include "protocol/operations.h"
#include "protocol/two_phase.h"

namespace dcp::baseline {

/// What the baselines' reads and writes share, built from the protocol's
/// coordinator rounds: the coordinator, one lock owner, the replica states
/// its lock rounds were granted, and the caller's callback (a write's
/// under exclusive locks, a read's under shared ones). The baselines keep
/// one object and no wound-wait seniority, so their rounds name object 0
/// and seniority 0.
class BaselineOp : public std::enable_shared_from_this<BaselineOp> {
 protected:
  BaselineOp(protocol::ReplicaNode* node, protocol::LockMode mode,
             protocol::WriteDone wdone, protocol::ReadDone rdone)
      : node_(node),
        mode_(mode),
        wdone_(std::move(wdone)),
        rdone_(std::move(rdone)) {
    owner_.coordinator = node_->self();
    owner_.operation_id = node_->NextOperationId();
  }

  template <typename Op>
  std::shared_ptr<Op> Self() {
    return std::static_pointer_cast<Op>(shared_from_this());
  }

  /// Runs `actions` through 2PC and reports `new_version` if it commits.
  void Commit(std::map<NodeId, protocol::StagedAction> actions,
              protocol::Version new_version) {
    auto self = shared_from_this();
    protocol::TwoPhaseCommit::Run(
        node_, owner_, std::move(actions),
        [self, new_version](Status s) {
          if (s.ok()) {
            self->wdone_(protocol::WriteOutcome{new_version});
          } else {
            self->wdone_(s);
          }
        });
  }

  /// Fetches the data from `target`, releases every held lock, then
  /// reports the read.
  void FetchAndRelease(NodeId target) {
    auto self = shared_from_this();
    protocol::FetchRound(
        node_, owner_, /*object=*/0, target,
        [self](Result<protocol::ReadOutcome> r) {
          protocol::UnlockRound(self->node_, self->owner_,
                                protocol::KeysOf(self->held_),
                                [self, r = std::move(r)] { self->rdone_(r); });
        });
  }

  /// Releases every held lock, then reports `status`.
  void Fail(Status status) {
    auto self = shared_from_this();
    protocol::UnlockRound(node_, owner_, protocol::KeysOf(held_),
                          [self, status] { self->Done(status); });
  }

  /// Reports `status` to the caller without releasing anything.
  void Done(const Status& status) {
    if (mode_ == protocol::LockMode::kExclusive) {
      wdone_(status);
    } else {
      rdone_(status);
    }
  }

  protocol::ReplicaNode* node_;
  protocol::LockMode mode_;
  protocol::LockOwner owner_;
  protocol::TupleMap held_;

 private:
  protocol::WriteDone wdone_;
  protocol::ReadDone rdone_;
};

}  // namespace dcp::baseline

#endif  // DCP_BASELINE_BASELINE_OP_H_
