#include "baseline/dynamic_voting.h"

#include <map>
#include <memory>
#include <utility>

#include "baseline/baseline_op.h"

namespace dcp::baseline {
namespace {

using protocol::LockMode;
using protocol::ReplicaNode;
using protocol::ReplicaStateTuple;
using protocol::StagedAction;
using protocol::Version;

/// The majority-of-update-sites test shared by reads and writes.
/// On success fills the outputs; on failure returns the reason.
Status EvaluateDistinguishedPartition(
    const protocol::TupleMap& held, Version* max_version,
    NodeSet* update_sites) {
  if (held.empty()) return Status::Unavailable("no replica reachable");
  Version m = 0;
  const ReplicaStateTuple* max_tuple = nullptr;
  for (const auto& [n, t] : held) {
    if (max_tuple == nullptr || t.version > m) {
      m = t.version;
      max_tuple = &t;
    }
  }
  NodeSet us = max_tuple->elist;  // Update-sites list of the last write.
  uint32_t sc = us.Size();
  uint32_t current_accessible = 0;
  for (const auto& [n, t] : held) {
    if (t.version == m && us.Contains(n)) ++current_accessible;
  }
  if (current_accessible < sc / 2 + 1) {
    return Status::Unavailable(
        "accessible current replicas are not a majority of the last "
        "update-sites group");
  }
  *max_version = m;
  *update_sites = std::move(us);
  return Status::OK();
}

class DvOp : public BaselineOp {
 public:
  DvOp(ReplicaNode* node, LockMode mode, std::vector<uint8_t> value,
       protocol::WriteDone wdone, protocol::ReadDone rdone)
      : BaselineOp(node, mode, std::move(wdone), std::move(rdone)),
        value_(std::move(value)) {}

  void Start() {
    // Dynamic voting polls (and locks) every replica, failures included.
    auto self = Self<DvOp>();
    protocol::LockRound(
        node_, owner_, mode_, /*object=*/0, node_->all_nodes(),
        [self](net::GatherResult g) {
          if (protocol::FoldGrants(g, &self->held_)) {
            self->Fail(Status::Conflict("lock conflict during poll"));
            return;
          }
          self->Evaluate();
        });
  }

 private:
  void Evaluate() {
    Version max_version = 0;
    NodeSet update_sites;
    Status s = EvaluateDistinguishedPartition(held_, &max_version,
                                              &update_sites);
    if (!s.ok()) {
      Fail(s);
      return;
    }
    if (mode_ == LockMode::kExclusive) {
      WriteTotal(max_version);
    } else {
      ReadNewest(max_version);
    }
  }

  void WriteTotal(Version max_version) {
    Version new_version = max_version + 1;
    NodeSet respondents = protocol::KeysOf(held_);

    std::map<NodeId, StagedAction> actions;
    for (const auto& [n, t] : held_) {
      protocol::ObjectAction obj;
      obj.install_snapshot = true;  // Total write to every respondent.
      obj.snapshot_version = new_version;
      obj.snapshot = protocol::Update::Total(value_);
      StagedAction act;
      act.objects.push_back(std::move(obj));
      act.install_epoch = true;  // New update-sites list = respondents.
      act.epoch_number = new_version;
      act.epoch_list = respondents;
      actions[n] = std::move(act);
    }
    Commit(std::move(actions), new_version);
  }

  void ReadNewest(Version max_version) {
    NodeId best = kInvalidNode;
    for (const auto& [n, t] : held_) {
      if (t.version == max_version) {
        best = n;
        break;
      }
    }
    FetchAndRelease(best);
  }

  std::vector<uint8_t> value_;
};

}  // namespace

void StartDynamicVotingWrite(protocol::ReplicaNode* node,
                             std::vector<uint8_t> value,
                             protocol::WriteDone done) {
  auto op = std::make_shared<DvOp>(node, LockMode::kExclusive, std::move(value),
                                   std::move(done), protocol::ReadDone{});
  op->Start();
}

void StartDynamicVotingRead(protocol::ReplicaNode* node,
                            protocol::ReadDone done) {
  auto op = std::make_shared<DvOp>(node, LockMode::kShared,
                                   std::vector<uint8_t>{},
                                   protocol::WriteDone{}, std::move(done));
  op->Start();
}

}  // namespace dcp::baseline
