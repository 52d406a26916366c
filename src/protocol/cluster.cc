#include "protocol/cluster.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "analysis/linearize.h"
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

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      // Stream root: THE root — every other stream in a simulation forks
      // (directly or lazily) from this seed.  // dcp-lint: allow(raw-rng)
      rng_(options_.seed),
      all_(NodeSet::Universe(options_.num_nodes)),
      num_objects_(std::max(1u, options_.num_objects)) {
  if (options_.enable_tracing) sim_.tracer().set_enabled(true);
  if (options_.sharded) {
    // The placement draws from its own root seeded like the cluster's, so
    // it never perturbs the cluster stream.
    table_ = std::make_unique<ObjectTable>(
        PlacementOptions{options_.num_nodes, num_objects_,
                         options_.replication_factor, options_.seed});
  }
  rule_ = MakeCoterieRule(options_.coterie);
  network_ = std::make_unique<net::Network>(&sim_, rng_.Fork(),
                                            options_.latency);
  if (!options_.fault_model.trivial()) {
    network_->set_fault_model(options_.fault_model);
  }
  const Catalog catalog = BuildCatalog(all_, num_objects_, table_.get());
  nodes_.reserve(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    ReplicaNodeOptions node_options = options_.node_options;
    if (options_.durability.enabled) {
      node_options.durability = options_.durability;
      // Independent per-node crash RNG: tears on node i never consume
      // draws another node (or the network) would have seen.
      node_options.durability.crash.seed =
          options_.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    }
    nodes_.push_back(std::make_unique<ReplicaNode>(
        network_.get(), i, all_, rule_.get(), catalog, options_.initial_value,
        node_options));
  }
  if (!options_.start_epoch_daemons) return;
  // The group lineage is checked through object 0, highest pool id first.
  std::vector<NodeId> group_ranking = all_.ToVector();
  std::reverse(group_ranking.begin(), group_ranking.end());
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    std::vector<std::pair<storage::ObjectId, std::vector<NodeId>>> ranked;
    if (table_) {
      for (storage::ObjectId o : nodes_[i]->HostedObjects()) {
        ranked.push_back({o, table_->placement(o).ranking});
      }
    } else {
      ranked.push_back({0, group_ranking});
    }
    muxes_.push_back(std::make_unique<EpochMux>(
        nodes_[i].get(), std::move(ranked), options_.epoch_check_interval));
  }
}

Cluster::~Cluster() = default;

NodeId Cluster::RouteCoordinator(storage::ObjectId object) {
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

void Cluster::Write(NodeId coordinator, storage::ObjectId object,
                    Update update, WriteDone done) {
  StartWrite(&node(coordinator), object, std::move(update),
             options_.write_options, &history_, std::move(done));
}

void Cluster::Read(NodeId coordinator, storage::ObjectId object,
                   ReadDone done) {
  StartRead(&node(coordinator), object, &history_, std::move(done));
}

void Cluster::TxnWrite(NodeId coordinator, std::vector<TxnWriteSpec> specs,
                       TxnWriteDone done) {
  StartTxnWrite(&node(coordinator), std::move(specs), &history_,
                std::move(done));
}

void Cluster::CheckEpoch(NodeId initiator, storage::ObjectId object,
                         EpochCheckDone done) {
  StartEpochCheck(&node(initiator), object, std::move(done));
}

template <typename T, typename Start>
T Cluster::RunSync(Start start, const char* drained) {
  std::optional<T> result;
  start([&result](T r) { result = std::move(r); });
  while (!result) {
    if (!sim_.Step()) return Status::Internal(drained);
  }
  return std::move(*result);
}

template <typename T, typename Attempt>
T Cluster::Retry(int max_attempts, Attempt attempt) {
  const RetryPolicy& policy = options_.retry_policy;
  T last = Status::InvalidArgument("max_attempts must be >= 1");
  for (int i = 0; i < max_attempts; ++i) {
    last = attempt();
    if (last.ok() || !policy.ShouldRetry(last.status())) return last;
    // Randomized backoff breaks symmetric lock contention and rides out
    // transient unavailability (when the policy opts in).
    RunFor(kRetryBackoffBase + rng_.NextDouble() * kRetryBackoffJitter);
  }
  return last;
}

Result<WriteOutcome> Cluster::WriteSync(NodeId coordinator,
                                        storage::ObjectId object,
                                        Update update) {
  return RunSync<Result<WriteOutcome>>(
      [&](WriteDone done) {
        Write(coordinator, object, std::move(update), std::move(done));
      },
      "simulation drained before write completed (coordinator crashed?)");
}

Result<ReadOutcome> Cluster::ReadSync(NodeId coordinator,
                                      storage::ObjectId object) {
  return RunSync<Result<ReadOutcome>>(
      [&](ReadDone done) { Read(coordinator, object, std::move(done)); },
      "simulation drained before read completed");
}

Result<TxnWriteOutcome> Cluster::TxnWriteSync(
    NodeId coordinator, std::vector<TxnWriteSpec> specs) {
  return RunSync<Result<TxnWriteOutcome>>(
      [&](TxnWriteDone done) {
        TxnWrite(coordinator, std::move(specs), std::move(done));
      },
      "simulation drained before txn completed");
}

Status Cluster::CheckEpochSync(NodeId initiator, storage::ObjectId object) {
  return RunSync<Status>(
      [&](EpochCheckDone done) {
        CheckEpoch(initiator, object, std::move(done));
      },
      "simulation drained before epoch check completed");
}

Result<WriteOutcome> Cluster::WriteSyncRetry(NodeId coordinator,
                                             storage::ObjectId object,
                                             Update update,
                                             int max_attempts) {
  return Retry<Result<WriteOutcome>>(
      max_attempts, [&] { return WriteSync(coordinator, object, update); });
}

Result<ReadOutcome> Cluster::ReadSyncRetry(NodeId coordinator,
                                           storage::ObjectId object,
                                           int max_attempts) {
  return Retry<Result<ReadOutcome>>(
      max_attempts, [&] { return ReadSync(coordinator, object); });
}

void Cluster::Crash(NodeId id) {
  network_->SetNodeUp(id, false);
  nodes_[id]->Crash();
  if (!muxes_.empty()) muxes_[id]->OnCrash();
}

void Cluster::Recover(NodeId id) {
  network_->SetNodeUp(id, true);
  nodes_[id]->Recover();
  if (!muxes_.empty()) muxes_[id]->OnRecover();
}

void Cluster::Partition(const std::vector<NodeSet>& groups) {
  network_->SetPartitions(groups);
}

void Cluster::Heal() { network_->HealPartitions(); }

void Cluster::SetGlobalFaults(const net::LinkFaults& faults) {
  network_->SetGlobalFaults(faults);
}

void Cluster::InjectLinkFault(NodeId src, NodeId dst,
                              const net::LinkFaults& faults) {
  network_->SetLinkFaults(src, dst, faults);
}

void Cluster::CutLink(NodeId src, NodeId dst) { network_->CutLink(src, dst); }

void Cluster::RestoreLink(NodeId src, NodeId dst) {
  network_->RestoreLink(src, dst);
}

void Cluster::ClearNetworkFaults() { network_->ClearFaults(); }

NodeSet Cluster::UpNodes() const {
  NodeSet up;
  for (uint32_t i = 0; i < num_nodes(); ++i) {
    if (network_->IsUp(i)) up.Insert(i);
  }
  return up;
}

void Cluster::RunFor(sim::Time duration) {
  sim_.RunUntil(sim_.Now() + duration);
}

bool Cluster::Quiescent() const {
  for (const auto& n : nodes_) {
    if (n->has_staged_transaction()) return false;
  }
  return true;
}

Status Cluster::CheckEpochInvariants() const {
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

Status Cluster::CheckReplicaConsistency() const {
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

Status Cluster::CheckHistory() const {
  analysis::AuditOptions audit;
  audit.initial_value = options_.initial_value;
  analysis::AuditVerdict verdict = analysis::AuditHistory(history_, audit);
  if (verdict.ok) return Status::OK();
  return Status::Internal(verdict.ToString());
}

}  // namespace dcp::protocol
