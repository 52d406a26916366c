#include "protocol/cluster.h"

#include <cassert>
#include <string>
#include <utility>

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
    // Stream root: THE root — every other stream in a simulation forks
    // (directly or lazily) from this seed.  // dcp-lint: allow(raw-rng)
    : options_(std::move(options)), rng_(options_.seed) {
  if (options_.enable_tracing) sim_.tracer().set_enabled(true);
  rule_ = MakeCoterieRule(options_.coterie);
  network_ = std::make_unique<net::Network>(&sim_, rng_.Fork(),
                                            options_.latency);
  if (!options_.fault_model.trivial()) {
    network_->set_fault_model(options_.fault_model);
  }
  NodeSet all = NodeSet::Universe(options_.num_nodes);
  uint32_t objects = std::max(1u, options_.num_objects);
  std::vector<std::vector<uint8_t>> initial_values(objects,
                                                   options_.initial_value);
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
        network_.get(), i, all, rule_.get(), initial_values, node_options));
  }
  if (options_.start_epoch_daemons) {
    daemons_.reserve(options_.num_nodes);
    for (uint32_t i = 0; i < options_.num_nodes; ++i) {
      daemons_.push_back(std::make_unique<EpochDaemon>(
          nodes_[i].get(), options_.daemon_options));
    }
  }
}

Cluster::~Cluster() = default;

void Cluster::Write(NodeId coordinator, storage::ObjectId object,
                    Update update, WriteDone done) {
  StartWrite(&node(coordinator), object, std::move(update),
             options_.write_options, &histories_[object], std::move(done));
}

void Cluster::Read(NodeId coordinator, storage::ObjectId object,
                   ReadDone done) {
  StartRead(&node(coordinator), object, &histories_[object], std::move(done));
}

void Cluster::CheckEpoch(NodeId initiator, EpochCheckDone done) {
  StartEpochCheck(&node(initiator), std::move(done));
}

namespace {

/// Steps the simulator until `*flag` becomes true. Returns false if the
/// event queue drained first (the operation lost its continuation — a
/// bug or a crashed coordinator).
bool RunUntilFlag(sim::Simulator* sim, const bool* flag) {
  while (!*flag) {
    if (!sim->Step()) return false;
  }
  return true;
}

}  // namespace

Result<WriteOutcome> Cluster::WriteSync(NodeId coordinator,
                                        storage::ObjectId object,
                                        Update update) {
  bool fired = false;
  Result<WriteOutcome> result = Status::Internal("unset");
  Write(coordinator, object, std::move(update), [&](Result<WriteOutcome> r) {
    fired = true;
    result = std::move(r);
  });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before write completed "
                            "(coordinator crashed?)");
  }
  return result;
}

Result<ReadOutcome> Cluster::ReadSync(NodeId coordinator,
                                      storage::ObjectId object) {
  bool fired = false;
  Result<ReadOutcome> result = Status::Internal("unset");
  Read(coordinator, object, [&](Result<ReadOutcome> r) {
    fired = true;
    result = std::move(r);
  });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before read completed");
  }
  return result;
}

Status Cluster::CheckEpochSync(NodeId initiator) {
  bool fired = false;
  Status result;
  CheckEpoch(initiator, [&](Status s) {
    fired = true;
    result = std::move(s);
  });
  if (!RunUntilFlag(&sim_, &fired)) {
    return Status::Internal("simulation drained before epoch check completed");
  }
  return result;
}

Result<WriteOutcome> Cluster::WriteSyncRetry(NodeId coordinator,
                                             storage::ObjectId object,
                                             Update update,
                                             int max_attempts) {
  const RetryPolicy& policy = options_.retry_policy;
  Result<WriteOutcome> last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    last = WriteSync(coordinator, object, update);
    if (last.ok() || !policy.ShouldRetry(last.status())) return last;
    // Randomized backoff breaks symmetric lock contention and rides out
    // transient unavailability (when the policy opts in).
    RunFor(policy.backoff_base + rng_.NextDouble() * policy.backoff_jitter);
  }
  return last;
}

Result<ReadOutcome> Cluster::ReadSyncRetry(NodeId coordinator,
                                           storage::ObjectId object,
                                           int max_attempts) {
  const RetryPolicy& policy = options_.retry_policy;
  Result<ReadOutcome> last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    last = ReadSync(coordinator, object);
    if (last.ok() || !policy.ShouldRetry(last.status())) return last;
    RunFor(policy.backoff_base + rng_.NextDouble() * policy.backoff_jitter);
  }
  return last;
}

void Cluster::Crash(NodeId id) {
  network_->SetNodeUp(id, false);
  nodes_[id]->Crash();
  if (!daemons_.empty()) daemons_[id]->OnCrash();
}

void Cluster::Recover(NodeId id) {
  network_->SetNodeUp(id, true);
  nodes_[id]->Recover();
  if (!daemons_.empty()) daemons_[id]->OnRecover();
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
  // Group nodes by epoch number (persistent state; crashed nodes count —
  // they will recover with this state).
  std::map<storage::EpochNumber, NodeSet> members;
  std::map<storage::EpochNumber, NodeSet> lists;
  storage::EpochNumber max_epoch = 0;
  for (const auto& n : nodes_) {
    storage::EpochNumber e = n->store().epoch_number();
    max_epoch = std::max(max_epoch, e);
    members[e].Insert(n->self());
    auto [it, inserted] = lists.emplace(e, n->store().epoch_list());
    if (!inserted && !(it->second == n->store().epoch_list())) {
      return Status::Internal("nodes with epoch " + std::to_string(e) +
                              " disagree on the epoch list");
    }
    if (!n->store().epoch_list().Contains(n->self())) {
      return Status::Internal("node " + std::to_string(n->self()) +
                              " not a member of its own epoch list");
    }
  }
  // Lemma 1: only the maximum epoch may assemble a write quorum from its
  // own members.
  for (const auto& [e, nodes_in_e] : members) {
    if (e == max_epoch) continue;
    if (rule_->IsWriteQuorum(lists.at(e), nodes_in_e)) {
      return Status::Internal(
          "Lemma 1 violated: stale epoch " + std::to_string(e) +
          " still holds a write quorum among " + nodes_in_e.ToString());
    }
  }
  return Status::OK();
}

Status Cluster::CheckReplicaConsistency() const {
  for (storage::ObjectId object = 0; object < nodes_[0]->num_objects();
       ++object) {
    storage::Version max_version = 0;
    for (const auto& n : nodes_) {
      if (!n->store(object).stale()) {
        max_version = std::max(max_version, n->store(object).version());
      }
    }
    const std::vector<uint8_t>* reference = nullptr;
    for (const auto& n : nodes_) {
      const auto& s = n->store(object);
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
            "node " + std::to_string(s.self()) + " object " +
            std::to_string(object) +
            " is marked stale but already reached its desired version");
      }
    }
  }
  return Status::OK();
}

Status Cluster::CheckHistory() const {
  for (const auto& [object, history] : histories_) {
    Status s = history.CheckOneCopySerializable(options_.initial_value);
    if (!s.ok()) {
      return Status::Internal("object " + std::to_string(object) + ": " +
                              s.ToString());
    }
  }
  return Status::OK();
}

}  // namespace dcp::protocol
