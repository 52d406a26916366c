#include "shard/sharded_cluster.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dcp::shard {

using protocol::ReplicaNode;

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : options_(std::move(options)),
      // Stream root of the sharded harness (coordinator routing, retry
      // backoff); forked into the network.  // dcp-lint: allow(raw-rng)
      rng_(options_.seed),
      table_([&] {
        PlacementOptions p;
        p.num_nodes = options_.num_nodes;
        p.num_objects = options_.num_objects;
        p.replication_factor = options_.replication_factor;
        p.num_coterie_classes = static_cast<uint32_t>(
            std::max<size_t>(1, options_.coterie_classes.size()));
        p.seed = options_.seed;
        return p;
      }()) {
  if (options_.enable_tracing) sim_.tracer().set_enabled(true);
  for (protocol::CoterieKind kind : options_.coterie_classes) {
    rules_.push_back(protocol::MakeCoterieRule(kind));
  }
  if (rules_.empty()) {
    rules_.push_back(
        protocol::MakeCoterieRule(protocol::CoterieKind::kMajority));
  }
  network_ = std::make_unique<net::Network>(&sim_, rng_.Fork(),
                                            options_.latency);
  if (!options_.fault_model.trivial()) {
    network_->set_fault_model(options_.fault_model);
  }

  // Directory: every object's home set, shipped to every node so any
  // node can coordinate cross-object transactions.
  std::map<storage::ObjectId, NodeSet> directory;
  for (storage::ObjectId o = 0; o < options_.num_objects; ++o) {
    directory[o] = table_.placement(o).replicas;
  }

  NodeSet pool = NodeSet::Universe(options_.num_nodes);
  nodes_.reserve(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    std::vector<protocol::HostedObjectSpec> catalog;
    for (storage::ObjectId o = 0; o < options_.num_objects; ++o) {
      const ObjectPlacement& p = table_.placement(o);
      if (!p.replicas.Contains(i)) continue;
      protocol::HostedObjectSpec spec;
      spec.id = o;
      spec.home = p.replicas;
      spec.rule = rules_[p.coterie_class].get();
      spec.initial_value = options_.initial_value;
      catalog.push_back(std::move(spec));
    }
    protocol::ReplicaNodeOptions node_options = options_.node_options;
    if (options_.durability.enabled) {
      node_options.durability = options_.durability;
      // Same per-node crash-RNG derivation as protocol::Cluster.
      node_options.durability.crash.seed =
          options_.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    }
    nodes_.push_back(std::make_unique<ReplicaNode>(
        network_.get(), i, pool, rules_[0].get(), std::move(catalog),
        directory, node_options));
  }

  if (options_.start_epoch_muxes) {
    muxes_.reserve(options_.num_nodes);
    for (uint32_t i = 0; i < options_.num_nodes; ++i) {
      std::vector<std::pair<storage::ObjectId, std::vector<NodeId>>> ranked;
      for (storage::ObjectId o : nodes_[i]->HostedObjects()) {
        ranked.push_back({o, table_.placement(o).ranking});
      }
      muxes_.push_back(std::make_unique<EpochMux>(
          nodes_[i].get(), std::move(ranked), options_.mux_options));
    }
  }
}

ShardedCluster::~ShardedCluster() = default;

NodeId ShardedCluster::RouteCoordinator(storage::ObjectId object) {
  const NodeSet& home = HomeNodes(object);
  NodeSet live_home;
  for (NodeId n : home) {
    if (network_->IsUp(n)) live_home.Insert(n);
  }
  if (!live_home.Empty()) {
    return live_home.NthMember(
        static_cast<uint32_t>(rng_.Uniform(live_home.Size())));
  }
  NodeSet live = UpNodes();
  if (!live.Empty()) {
    return live.NthMember(static_cast<uint32_t>(rng_.Uniform(live.Size())));
  }
  return home.NthMember(0);
}

void ShardedCluster::Write(NodeId coordinator, storage::ObjectId object,
                           storage::Update update, protocol::WriteDone done) {
  protocol::StartWrite(&node(coordinator), object, std::move(update),
                       options_.write_options, &histories_[object],
                       std::move(done));
}

void ShardedCluster::Read(NodeId coordinator, storage::ObjectId object,
                          protocol::ReadDone done) {
  protocol::StartRead(&node(coordinator), object, &histories_[object],
                      std::move(done));
}

void ShardedCluster::TxnWrite(NodeId coordinator,
                              std::vector<protocol::TxnWriteSpec> specs,
                              protocol::TxnWriteDone done) {
  protocol::StartTxnWrite(
      &node(coordinator), std::move(specs),
      [this](storage::ObjectId o) { return &histories_[o]; },
      std::move(done));
}

void ShardedCluster::CheckObjectEpoch(NodeId initiator,
                                      storage::ObjectId object,
                                      protocol::EpochCheckDone done) {
  protocol::StartObjectEpochCheck(&node(initiator), object, std::move(done));
}

namespace {

bool RunUntilFlag(sim::Simulator* sim, const bool* flag) {
  while (!*flag) {
    if (!sim->Step()) return false;
  }
  return true;
}

}  // namespace

Result<protocol::WriteOutcome> ShardedCluster::WriteSync(
    NodeId coordinator, storage::ObjectId object, storage::Update update) {
  bool fired = false;
  Result<protocol::WriteOutcome> result = Status::Internal("unset");
  Write(coordinator, object, std::move(update),
        [&](Result<protocol::WriteOutcome> r) {
          fired = true;
          result = std::move(r);
        });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before write completed");
  }
  return result;
}

Result<protocol::ReadOutcome> ShardedCluster::ReadSync(
    NodeId coordinator, storage::ObjectId object) {
  bool fired = false;
  Result<protocol::ReadOutcome> result = Status::Internal("unset");
  Read(coordinator, object, [&](Result<protocol::ReadOutcome> r) {
    fired = true;
    result = std::move(r);
  });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before read completed");
  }
  return result;
}

Result<protocol::TxnWriteOutcome> ShardedCluster::TxnWriteSync(
    NodeId coordinator, std::vector<protocol::TxnWriteSpec> specs) {
  bool fired = false;
  Result<protocol::TxnWriteOutcome> result = Status::Internal("unset");
  TxnWrite(coordinator, std::move(specs),
           [&](Result<protocol::TxnWriteOutcome> r) {
             fired = true;
             result = std::move(r);
           });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before txn completed");
  }
  return result;
}

Status ShardedCluster::CheckObjectEpochSync(NodeId initiator,
                                            storage::ObjectId object) {
  bool fired = false;
  Status result;
  CheckObjectEpoch(initiator, object, [&](Status s) {
    fired = true;
    result = std::move(s);
  });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before epoch check completed");
  }
  return result;
}

Result<protocol::WriteOutcome> ShardedCluster::WriteSyncRetry(
    NodeId coordinator, storage::ObjectId object, storage::Update update,
    int max_attempts) {
  const protocol::RetryPolicy& policy = options_.retry_policy;
  Result<protocol::WriteOutcome> last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    last = WriteSync(coordinator, object, update);
    if (last.ok() || !policy.ShouldRetry(last.status())) return last;
    RunFor(policy.backoff_base + rng_.NextDouble() * policy.backoff_jitter);
  }
  return last;
}

Result<protocol::ReadOutcome> ShardedCluster::ReadSyncRetry(
    NodeId coordinator, storage::ObjectId object, int max_attempts) {
  const protocol::RetryPolicy& policy = options_.retry_policy;
  Result<protocol::ReadOutcome> last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    last = ReadSync(coordinator, object);
    if (last.ok() || !policy.ShouldRetry(last.status())) return last;
    RunFor(policy.backoff_base + rng_.NextDouble() * policy.backoff_jitter);
  }
  return last;
}

void ShardedCluster::Crash(NodeId id) {
  network_->SetNodeUp(id, false);
  nodes_[id]->Crash();
  if (!muxes_.empty()) muxes_[id]->OnCrash();
}

void ShardedCluster::Recover(NodeId id) {
  network_->SetNodeUp(id, true);
  nodes_[id]->Recover();
  if (!muxes_.empty()) muxes_[id]->OnRecover();
}

void ShardedCluster::Partition(const std::vector<NodeSet>& groups) {
  network_->SetPartitions(groups);
}

void ShardedCluster::Heal() { network_->HealPartitions(); }

NodeSet ShardedCluster::UpNodes() const {
  NodeSet up;
  for (uint32_t i = 0; i < num_nodes(); ++i) {
    if (network_->IsUp(i)) up.Insert(i);
  }
  return up;
}

void ShardedCluster::RunFor(sim::Time duration) {
  sim_.RunUntil(sim_.Now() + duration);
}

bool ShardedCluster::Quiescent() const {
  for (const auto& n : nodes_) {
    if (n->has_staged_transaction()) return false;
  }
  return true;
}

Status ShardedCluster::CheckEpochInvariants() const {
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
  for (storage::ObjectId object = 0; object < options_.num_objects;
       ++object) {
    const NodeSet& home = table_.placement(object).replicas;
    std::map<storage::EpochNumber, NodeSet> members;
    std::map<storage::EpochNumber, NodeSet> lists;
    storage::EpochNumber max_epoch = 0;
    for (NodeId n : home) {
      const storage::ReplicaStore& s = nodes_[n]->store(object);
      storage::EpochNumber e = s.epoch_number();
      max_epoch = std::max(max_epoch, e);
      members[e].Insert(n);
      auto [it, inserted] = lists.emplace(e, s.epoch_list());
      if (!inserted && !(it->second == s.epoch_list())) {
        return Status::Internal("object " + std::to_string(object) +
                                ": nodes with epoch " + std::to_string(e) +
                                " disagree on the epoch list");
      }
      if (!s.epoch_list().Contains(n)) {
        return Status::Internal("object " + std::to_string(object) +
                                ": node " + std::to_string(n) +
                                " not a member of its own epoch list");
      }
    }
    // Lemma 1, per lineage: only the maximum epoch of this object may
    // assemble a write quorum (under the object's rule) from its members.
    for (const auto& [e, nodes_in_e] : members) {
      if (e == max_epoch) continue;
      if (RuleFor(object).IsWriteQuorum(lists.at(e), nodes_in_e)) {
        return Status::Internal(
            "object " + std::to_string(object) +
            ": Lemma 1 violated: stale epoch " + std::to_string(e) +
            " still holds a write quorum among " + nodes_in_e.ToString());
      }
    }
  }
  return Status::OK();
}

Status ShardedCluster::CheckReplicaConsistency() const {
  for (storage::ObjectId object = 0; object < options_.num_objects;
       ++object) {
    const NodeSet& home = table_.placement(object).replicas;
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

Status ShardedCluster::CheckHistory() const {
  for (const auto& [object, history] : histories_) {
    Status s = history.CheckOneCopySerializable(options_.initial_value);
    if (!s.ok()) {
      return Status::Internal("object " + std::to_string(object) + ": " +
                              s.ToString());
    }
  }
  return Status::OK();
}

}  // namespace dcp::shard
