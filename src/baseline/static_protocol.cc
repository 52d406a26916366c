#include "baseline/static_protocol.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "baseline/baseline_op.h"

namespace dcp::baseline {
namespace {

using protocol::LockMode;
using protocol::ReplicaNode;
using protocol::StagedAction;
using protocol::Version;

/// A static-quorum write (exclusive locks, then a total write to every
/// member) or read (shared locks, then a fetch from the highest-version
/// member) over the quorum the rule picks from the full node set.
class StaticOp : public BaselineOp {
 public:
  StaticOp(ReplicaNode* node, LockMode mode, std::vector<uint8_t> value,
           protocol::WriteDone wdone, protocol::ReadDone rdone)
      : BaselineOp(node, mode, std::move(wdone), std::move(rdone)),
        value_(std::move(value)) {}

  void Start() {
    bool write = mode_ == LockMode::kExclusive;
    uint64_t selector = protocol::QuorumSelector(owner_);
    Result<NodeSet> quorum =
        write ? node_->rule().WriteQuorum(node_->all_nodes(), selector)
              : node_->rule().ReadQuorum(node_->all_nodes(), selector);
    if (!quorum.ok()) {
      Done(quorum.status());
      return;
    }
    auto self = Self<StaticOp>();
    protocol::LockRound(
        node_, owner_, mode_, /*object=*/0, /*seniority=*/0, *quorum,
        [self, write](net::GatherResult g) {
          bool refused = protocol::FoldGrants(g, &self->held_);
          // Static protocol: the chosen quorum must answer in full.
          // (A different quorum choice could still succeed; the caller
          // may retry, which redraws via the operation id.)
          if (self->held_.size() != g.replies.size()) {
            std::string what = write ? "write quorum" : "read quorum";
            self->Fail(refused ? Status::Conflict("lock conflict in " + what)
                               : Status::Unavailable(what +
                                                     " member unreachable"));
          } else if (write) {
            self->WriteTotal();
          } else {
            self->ReadNewest();
          }
        });
  }

 private:
  void WriteTotal() {
    Version max_version = 0;
    for (const auto& [node, t] : held_) {
      max_version = std::max(max_version, t.version);
    }
    Version new_version = max_version + 1;
    std::map<NodeId, StagedAction> actions;
    for (const auto& [node, t] : held_) {
      protocol::ObjectAction obj;
      obj.install_snapshot = true;  // Total write: replace outright.
      obj.snapshot_version = new_version;
      obj.snapshot = protocol::Update::Total(value_);
      StagedAction act;
      act.objects.push_back(std::move(obj));
      actions[node] = std::move(act);
    }
    Commit(std::move(actions), new_version);
  }

  void ReadNewest() {
    NodeId best = kInvalidNode;
    Version best_version = 0;
    for (const auto& [node, t] : held_) {
      if (best == kInvalidNode || t.version > best_version) {
        best = node;
        best_version = t.version;
      }
    }
    FetchAndRelease(best);
  }

  std::vector<uint8_t> value_;
};

}  // namespace

void StartStaticWrite(protocol::ReplicaNode* node, std::vector<uint8_t> value,
                      protocol::WriteDone done) {
  auto op = std::make_shared<StaticOp>(node, LockMode::kExclusive,
                                       std::move(value), std::move(done),
                                       protocol::ReadDone{});
  op->Start();
}

void StartStaticRead(protocol::ReplicaNode* node, protocol::ReadDone done) {
  auto op = std::make_shared<StaticOp>(node, LockMode::kShared,
                                       std::vector<uint8_t>{},
                                       protocol::WriteDone{}, std::move(done));
  op->Start();
}

}  // namespace dcp::baseline
