#ifndef DCP_PROTOCOL_CLUSTER_H_
#define DCP_PROTOCOL_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.h"
#include "protocol/deployment.h"
#include "protocol/epoch_mux.h"
#include "protocol/replica_node.h"
#include "sim/simulator.h"

namespace dcp::protocol {

struct ClusterOptions {
  uint32_t num_nodes = 9;
  /// Data items, ids [0, num_objects). In group mode every node hosts all
  /// of them and they share one epoch; epoch checks cover the group at
  /// once (Section 2's amortization).
  uint32_t num_objects = 1;
  /// Sharded deployment: place each object onto a `replication_factor`
  /// subset of the nodes (an ObjectTable seeded by `seed`) and give it its
  /// own epoch lineage. Epoch checks are then per object
  /// (CheckEpoch(initiator, object)).
  bool sharded = false;
  uint32_t replication_factor = 3;
  CoterieKind coterie = CoterieKind::kGrid;
  uint64_t seed = 1;
  net::LatencyModel latency{1.0, 0.5};
  /// Message-level faults installed at construction (drop / duplication /
  /// reordering / per-link overrides). Trivial by default: the pristine
  /// fail-stop network of the paper.
  net::FaultModel fault_model;
  std::vector<uint8_t> initial_value;  ///< Shared by all objects.
  ReplicaNodeOptions node_options;
  /// Per-node durable storage (simulated disk + WAL). Off by default —
  /// the ideal-persistence model, byte-identical to pre-durability runs.
  /// When enabled, each node gets an independent crash-model RNG derived
  /// from `seed` and this node's id (durability draws never touch the
  /// cluster's main RNG stream).
  store::DurabilityOptions durability;
  WriteOptions write_options;

  /// Start the background epoch-check daemon (an EpochMux) on every
  /// node. It checks each lineage every `epoch_check_interval`: the
  /// group lineage in group mode, each object's lineage when sharded.
  bool start_epoch_daemons = false;
  /// Period of the "steady (albeit infrequent) pulse of epoch checking
  /// operations" (Section 2).
  rt::Time epoch_check_interval = 300.0;

  /// Record structured trace events (RPC / 2PC / epoch spans) from the
  /// start. Off by default: tracing observes only and never perturbs the
  /// simulation, but event storage costs memory on long runs.
  bool enable_tracing = false;
};

/// The simulator backend of Deployment, and the library's entry point:
/// the nodes over a deterministic net::Network, with optional durability
/// and epoch daemons, recording every read and write into history(). A
/// blocking call steps the simulation until it completes (later events
/// stay queued); RunFor advances the clock.
class Cluster : public Deployment {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster() override;

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  obs::MetricsRegistry& metrics() { return sim_.metrics(); }
  obs::EventTracer& tracer() { return sim_.tracer(); }
  const ClusterOptions& options() const { return options_; }
  /// Node `id`'s epoch daemon (daemons started).
  EpochMux& mux(NodeId id) { return *muxes_[id]; }

  // --- fault injection ---
  void Crash(NodeId id);
  void Recover(NodeId id);
  void Partition(const std::vector<NodeSet>& groups);
  void Heal();

  // --- message-level fault injection (nemesis support) ---

  /// Sets the every-link default message faults.
  void SetGlobalFaults(const net::LinkFaults& faults);
  /// Sets the faults of the directed link src -> dst (a trivial value
  /// clears the link back to the global default).
  void InjectLinkFault(NodeId src, NodeId dst, const net::LinkFaults& faults);
  /// Cuts / restores the directed link src -> dst (asymmetric: the
  /// reverse direction keeps flowing).
  void CutLink(NodeId src, NodeId dst);
  void RestoreLink(NodeId src, NodeId dst);
  /// Lifts the whole fault model and every link cut.
  void ClearNetworkFaults();

  /// Advances the simulation clock by `duration`.
  void RunFor(sim::Time duration) override;

 protected:
  /// Starts `call` inline and steps the simulation until it completes. If
  /// the event queue drains first — the operation lost its continuation:
  /// a bug or a crashed coordinator — returns Internal.
  [[nodiscard]] Status Await(NodeId at, Call call,
                             const char* what) override;

 private:
  ClusterOptions options_;
  // These die before the base's nodes; no node destructor touches them.
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<EpochMux>> muxes_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_CLUSTER_H_
