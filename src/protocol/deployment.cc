#include "protocol/deployment.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analysis/linearize.h"
#include "coterie/grid.h"
#include "coterie/hierarchical.h"
#include "coterie/majority.h"
#include "coterie/tree.h"

namespace dcp::protocol {

std::unique_ptr<coterie::CoterieRule> MakeCoterieRule(CoterieKind kind) {
  switch (kind) {
    case CoterieKind::kGrid:
      return std::make_unique<coterie::GridCoterie>();
    case CoterieKind::kGridUnoptimized: {
      coterie::GridOptions opts;
      opts.short_column_optimization = false;
      return std::make_unique<coterie::GridCoterie>(opts);
    }
    case CoterieKind::kGridColumnSafe: {
      coterie::GridOptions opts;
      opts.layout = coterie::GridLayout::kColumnSafe;
      return std::make_unique<coterie::GridCoterie>(opts);
    }
    case CoterieKind::kMajority:
      return std::make_unique<coterie::MajorityCoterie>();
    case CoterieKind::kTree:
      return std::make_unique<coterie::TreeCoterie>();
    case CoterieKind::kHierarchical:
      return std::make_unique<coterie::HierarchicalCoterie>();
  }
  return nullptr;
}

Deployment::Deployment(uint32_t num_nodes, uint32_t num_objects,
                       bool sharded, uint32_t replication_factor,
                       uint64_t seed, CoterieKind coterie,
                       std::vector<uint8_t> initial_value,
                       WriteOptions write_options, bool record_history)
    :  // Stream root: THE root — every other stream of a deployment
      // forks (directly or lazily) from this seed.  // dcp-lint: allow(raw-rng)
      rng_(seed),
      all_(NodeSet::Universe(num_nodes)),
      num_objects_(std::max(1u, num_objects)),
      initial_value_(std::move(initial_value)),
      write_options_(write_options),
      record_history_(record_history),
      rule_(MakeCoterieRule(coterie)) {
  if (sharded) {
    // The placement draws from its own root seeded like the deployment's,
    // so it never perturbs the deployment stream.
    table_ = std::make_unique<ObjectTable>(
        PlacementOptions{num_nodes, num_objects_, replication_factor, seed});
  }
}

Deployment::~Deployment() = default;

Rng Deployment::ForkRng() {
  util::MutexLock lock(&rng_mu_);
  return rng_.Fork();
}

void Deployment::BuildNodes(
    rt::Transport* transport,
    const std::function<ReplicaNodeOptions(NodeId)>& node_options) {
  transport_ = transport;
  const Catalog catalog = BuildCatalog(all_, num_objects_, table_.get());
  nodes_.reserve(all_.Size());
  for (NodeId i = 0; i < all_.Size(); ++i) {
    nodes_.push_back(std::make_unique<ReplicaNode>(
        transport, i, all_, rule_.get(), catalog, initial_value_,
        node_options(i)));
  }
}

NodeSet Deployment::UpNodes() const {
  NodeSet up;
  for (NodeId n : all_) {
    if (transport_->IsUp(n)) up.Insert(n);
  }
  return up;
}

NodeId Deployment::PickMember(const NodeSet& nodes) {
  util::MutexLock lock(&rng_mu_);
  return nodes.NthMember(static_cast<uint32_t>(rng_.Uniform(nodes.Size())));
}

NodeId Deployment::RouteCoordinator(storage::ObjectId object) {
  const NodeSet& home = HomeNodes(object);
  NodeSet live_home;
  for (NodeId n : home) {
    if (transport_->IsUp(n)) live_home.Insert(n);
  }
  if (!live_home.Empty()) return PickMember(live_home);
  NodeSet live = UpNodes();
  if (!live.Empty()) return PickMember(live);
  return home.NthMember(0);
}

void Deployment::Write(NodeId coordinator, storage::ObjectId object,
                       Update update, WriteDone done) {
  StartWrite(&node(coordinator), object, std::move(update), write_options_,
             recorder(), std::move(done));
}

void Deployment::Read(NodeId coordinator, storage::ObjectId object,
                      ReadDone done) {
  StartRead(&node(coordinator), object, recorder(), std::move(done));
}

void Deployment::TxnWrite(NodeId coordinator, std::vector<TxnWriteSpec> specs,
                          TxnWriteDone done) {
  StartTxnWrite(&node(coordinator), std::move(specs), recorder(),
                std::move(done));
}

void Deployment::CheckEpoch(NodeId initiator, storage::ObjectId object,
                            EpochCheckDone done) {
  StartEpochCheck(&node(initiator), object, std::move(done));
}

template <typename T, typename Start>
T Deployment::RunSync(NodeId at, const char* what, Start start) {
  // Shared with the call, so an operation that completes after its wait
  // gave up writes into a live slot rather than into this frame.
  auto result = std::make_shared<std::optional<T>>();
  Status waited = Await(
      at,
      [result, start](std::function<void()> completed) mutable {
        start([result, completed](T r) {
          *result = std::move(r);
          completed();
        });
      },
      what);
  if (!waited.ok()) return waited;
  return std::move(**result);
}

template <typename T, typename Attempt>
T Deployment::Retry(int max_attempts, Attempt attempt) {
  T last = Status::InvalidArgument("max_attempts must be >= 1");
  for (int i = 0; i < max_attempts; ++i) {
    last = attempt();
    if (last.ok() || !last.status().IsConflict()) return last;
    // Randomized backoff breaks symmetric lock contention.
    double jitter;
    {
      util::MutexLock lock(&rng_mu_);
      jitter = rng_.NextDouble();
    }
    RunFor(kRetryBackoffBase + jitter * kRetryBackoffJitter);
  }
  return last;
}

Result<WriteOutcome> Deployment::WriteSync(NodeId coordinator,
                                           storage::ObjectId object,
                                           Update update) {
  return RunSync<Result<WriteOutcome>>(
      coordinator, "write", [=, this](WriteDone done) mutable {
        Write(coordinator, object, std::move(update), std::move(done));
      });
}

Result<ReadOutcome> Deployment::ReadSync(NodeId coordinator,
                                         storage::ObjectId object) {
  return RunSync<Result<ReadOutcome>>(
      coordinator, "read",
      [=, this](ReadDone done) { Read(coordinator, object, std::move(done)); });
}

Result<TxnWriteOutcome> Deployment::TxnWriteSync(
    NodeId coordinator, std::vector<TxnWriteSpec> specs) {
  return RunSync<Result<TxnWriteOutcome>>(
      coordinator, "txn", [=, this](TxnWriteDone done) mutable {
        TxnWrite(coordinator, std::move(specs), std::move(done));
      });
}

Status Deployment::CheckEpochSync(NodeId initiator,
                                  storage::ObjectId object) {
  return RunSync<Status>(initiator, "epoch check",
                         [=, this](EpochCheckDone done) {
                           CheckEpoch(initiator, object, std::move(done));
                         });
}

Result<WriteOutcome> Deployment::WriteSyncRetry(NodeId coordinator,
                                                storage::ObjectId object,
                                                Update update,
                                                int max_attempts) {
  return Retry<Result<WriteOutcome>>(
      max_attempts, [&] { return WriteSync(coordinator, object, update); });
}

Result<ReadOutcome> Deployment::ReadSyncRetry(NodeId coordinator,
                                              storage::ObjectId object,
                                              int max_attempts) {
  return Retry<Result<ReadOutcome>>(
      max_attempts, [&] { return ReadSync(coordinator, object); });
}

bool Deployment::Quiescent() const {
  for (const auto& n : nodes_) {
    if (n->has_staged_transaction()) return false;
  }
  return true;
}

Status Deployment::CheckEpochInvariants() const {
  if (!Quiescent()) {
    return Status::Aborted("cluster not quiescent; invariants undefined "
                           "mid-transaction");
  }
  for (const auto& n : nodes_) {
    if (!n->LockIndexConsistent()) {
      return Status::Internal("node " + std::to_string(n->self()) +
                              " holds a lock missing from its owner's "
                              "lock record");
    }
  }
  for (storage::ObjectId object = 0; object < num_objects_; ++object) {
    const std::string prefix = "object " + std::to_string(object) + ": ";
    // Group the object's home nodes by epoch number (persistent state;
    // crashed nodes count — they will recover with this state).
    std::map<storage::EpochNumber, NodeSet> members;
    std::map<storage::EpochNumber, NodeSet> lists;
    storage::EpochNumber max_epoch = 0;
    for (NodeId n : HomeNodes(object)) {
      const storage::ReplicaStore& s = nodes_[n]->store(object);
      storage::EpochNumber e = s.epoch_number();
      max_epoch = std::max(max_epoch, e);
      members[e].Insert(n);
      auto [it, inserted] = lists.emplace(e, s.epoch_list());
      if (!inserted && !(it->second == s.epoch_list())) {
        return Status::Internal(prefix + "nodes with epoch " +
                                std::to_string(e) +
                                " disagree on the epoch list");
      }
      if (!s.epoch_list().Contains(n)) {
        return Status::Internal(prefix + "node " + std::to_string(n) +
                                " not a member of its own epoch list");
      }
    }
    // Lemma 1: only the object's maximum epoch may assemble a write
    // quorum from its own members.
    for (const auto& [e, nodes_in_e] : members) {
      if (e == max_epoch) continue;
      if (rule_->IsWriteQuorum(lists.at(e), nodes_in_e)) {
        return Status::Internal(
            prefix + "Lemma 1 violated: stale epoch " + std::to_string(e) +
            " still holds a write quorum among " + nodes_in_e.ToString());
      }
    }
  }
  return Status::OK();
}

Status Deployment::CheckReplicaConsistency() const {
  for (storage::ObjectId object = 0; object < num_objects_; ++object) {
    const NodeSet& home = HomeNodes(object);
    storage::Version max_version = 0;
    for (NodeId n : home) {
      const storage::ReplicaStore& s = nodes_[n]->store(object);
      if (!s.stale()) max_version = std::max(max_version, s.version());
    }
    const std::vector<uint8_t>* reference = nullptr;
    for (NodeId n : home) {
      const storage::ReplicaStore& s = nodes_[n]->store(object);
      if (!s.stale() && s.version() == max_version) {
        if (reference == nullptr) {
          reference = &s.object().data();
        } else if (*reference != s.object().data()) {
          return Status::Internal(
              "two non-stale replicas of object " + std::to_string(object) +
              " at version " + std::to_string(max_version) +
              " hold different data");
        }
      }
      if (s.stale() && s.version() >= s.desired_version()) {
        return Status::Internal(
            "node " + std::to_string(n) + " object " +
            std::to_string(object) +
            " is marked stale but already reached its desired version");
      }
    }
  }
  return Status::OK();
}

Status Deployment::CheckHistory() const {
  if (!record_history_) {
    return Status::Aborted("no client history is recorded on this backend; "
                           "nothing to audit");
  }
  analysis::AuditOptions audit;
  audit.initial_value = initial_value_;
  analysis::AuditVerdict verdict = analysis::AuditHistory(history_, audit);
  if (verdict.ok) return Status::OK();
  return Status::Internal(verdict.ToString());
}

}  // namespace dcp::protocol
