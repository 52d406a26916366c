#include "protocol/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dcp::protocol {

Cluster::Cluster(ClusterOptions options)
    : Deployment(options.num_nodes, options.num_objects, options.sharded,
                 options.replication_factor, options.seed, options.coterie,
                 options.initial_value, options.write_options,
                 /*record_history=*/true),
      options_(std::move(options)) {
  if (options_.enable_tracing) sim_.tracer().set_enabled(true);
  network_ = std::make_unique<net::Network>(&sim_, ForkRng(),
                                            options_.latency);
  if (!options_.fault_model.trivial()) {
    network_->set_fault_model(options_.fault_model);
  }
  BuildNodes(network_.get(), [this](NodeId i) {
    ReplicaNodeOptions node_options = options_.node_options;
    if (options_.durability.enabled) {
      node_options.durability = options_.durability;
      // Independent per-node crash RNG: tears on node i never consume
      // draws another node (or the network) would have seen.
      node_options.durability.crash.seed =
          options_.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    }
    return node_options;
  });
  if (!options_.start_epoch_daemons) return;
  // The group lineage is checked through object 0, highest pool id first.
  std::vector<NodeId> group_ranking = all_nodes().ToVector();
  std::reverse(group_ranking.begin(), group_ranking.end());
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    std::vector<std::pair<storage::ObjectId, std::vector<NodeId>>> ranked;
    if (table()) {
      for (storage::ObjectId o : node(i).HostedObjects()) {
        ranked.push_back({o, table()->placement(o).ranking});
      }
    } else {
      ranked.push_back({0, group_ranking});
    }
    muxes_.push_back(std::make_unique<EpochMux>(
        &node(i), std::move(ranked), options_.epoch_check_interval));
  }
}

Cluster::~Cluster() = default;

Status Cluster::Await(NodeId /*at*/, Call call, const char* what) {
  auto completed = std::make_shared<bool>(false);
  call([completed] { *completed = true; });
  while (!*completed) {
    if (!sim_.Step()) {
      return Status::Internal(std::string("simulation drained before ") +
                              what + " completed");
    }
  }
  return Status::OK();
}

void Cluster::RunFor(sim::Time duration) {
  sim_.RunUntil(sim_.Now() + duration);
}

void Cluster::Crash(NodeId id) {
  network_->SetNodeUp(id, false);
  node(id).Crash();
  if (!muxes_.empty()) muxes_[id]->OnCrash();
}

void Cluster::Recover(NodeId id) {
  network_->SetNodeUp(id, true);
  node(id).Recover();
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

}  // namespace dcp::protocol
