#ifndef DCP_PROTOCOL_CLUSTER_H_
#define DCP_PROTOCOL_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/client_history.h"
#include "coterie/coterie.h"
#include "coterie/grid.h"
#include "net/network.h"
#include "protocol/epoch_mux.h"
#include "protocol/operations.h"
#include "protocol/placement.h"
#include "protocol/replica_node.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/result.h"

namespace dcp::protocol {

/// Which coterie rule the dynamic protocol runs over. The protocol of
/// Section 4 is rule-agnostic; this is the generality the paper claims.
enum class CoterieKind {
  kGrid,             ///< Section 5's dynamic grid (with optimization).
  kGridUnoptimized,  ///< Grid without the short-column optimization.
  kGridColumnSafe,   ///< Grid with the corrected construction rule.
  kMajority,         ///< Dynamic voting-style (Section 7).
  kTree,             ///< Agrawal-El Abbadi tree quorums.
  kHierarchical,     ///< Kumar's hierarchical quorum consensus.
};

/// Constructs a coterie rule instance by kind (caller owns it).
std::unique_ptr<coterie::CoterieRule> MakeCoterieRule(CoterieKind kind);

/// The *SyncRetry wrappers' pause between attempts: the base plus a
/// uniform extra in [0, jitter).
inline constexpr sim::Time kRetryBackoffBase = 5.0;
inline constexpr sim::Time kRetryBackoffJitter = 20.0;

/// Client-side retry behavior for the *SyncRetry wrappers. The defaults
/// reproduce the historical behavior exactly (identical RNG draws, so
/// same-seed runs are unchanged): lock conflicts retry with randomized
/// backoff, everything else is terminal. kUnavailable is in reality just
/// as transient as kConflict — a quorum missing *now* (node rebooting,
/// partition healing) is routinely present a few backoffs later — so
/// clients that want to ride out faults set retry_unavailable.
struct RetryPolicy {
  bool retry_conflict = true;      ///< Retry StatusCode::kConflict.
  bool retry_unavailable = false;  ///< Retry StatusCode::kUnavailable.

  bool ShouldRetry(const Status& s) const {
    return (s.IsConflict() && retry_conflict) ||
           (s.IsUnavailable() && retry_unavailable);
  }
};

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
  /// Governs WriteSyncRetry / ReadSyncRetry.
  RetryPolicy retry_policy;

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

/// An in-simulator deployment: N replica nodes, the network, optional
/// epoch daemons, and the client history of every read and write started
/// through it. The nodes either form one replica group whose objects
/// share an epoch, or (sharded) host the objects an ObjectTable places on
/// them, each object with its own epoch lineage over its home set. This
/// is the library's top-level entry point — examples, tests, and benches
/// all drive the protocol through a Cluster.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  obs::MetricsRegistry& metrics() { return sim_.metrics(); }
  obs::EventTracer& tracer() { return sim_.tracer(); }
  const coterie::CoterieRule& rule() const { return *rule_; }
  ReplicaNode& node(NodeId id) { return *nodes_[id]; }
  const ReplicaNode& node(NodeId id) const { return *nodes_[id]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  uint32_t num_objects() const { return num_objects_; }
  const NodeSet& all_nodes() const { return all_; }
  /// Every read and write started through this cluster, as client ops.
  const analysis::ClientHistory& history() const { return history_; }
  const ClusterOptions& options() const { return options_; }
  /// The placement table of a sharded deployment; null in group mode.
  const ObjectTable* table() const { return table_.get(); }
  /// Node `id`'s epoch daemon (daemons started).
  EpochMux& mux(NodeId id) { return *muxes_[id]; }

  /// The nodes holding `object`'s replicas: its placement home set when
  /// sharded, every node in group mode.
  const NodeSet& HomeNodes(storage::ObjectId object) const {
    return table_ ? table_->placement(object).replicas : all_;
  }
  /// Picks a coordinator for `object`: a live home node (rotated by the
  /// cluster RNG), falling back to any live node, then home member 0.
  [[nodiscard]] NodeId RouteCoordinator(storage::ObjectId object);

  // --- asynchronous client operations (coordinator = a replica node) ---
  void Write(NodeId coordinator, storage::ObjectId object, Update update,
             WriteDone done);
  void Write(NodeId coordinator, Update update, WriteDone done) {
    Write(coordinator, 0, std::move(update), std::move(done));
  }
  void Read(NodeId coordinator, storage::ObjectId object, ReadDone done);
  void Read(NodeId coordinator, ReadDone done) {
    Read(coordinator, 0, std::move(done));
  }
  /// Cross-object transaction: every spec commits or none does.
  void TxnWrite(NodeId coordinator, std::vector<TxnWriteSpec> specs,
                TxnWriteDone done);
  /// Epoch check of the lineage that owns `object` (the group-wide one
  /// in group mode).
  void CheckEpoch(NodeId initiator, storage::ObjectId object,
                  EpochCheckDone done);

  // --- synchronous wrappers: run the simulation until the operation
  //     completes (events after completion stay queued). ---
  [[nodiscard]]
  Result<WriteOutcome> WriteSync(NodeId coordinator, storage::ObjectId object,
                                 Update update);
  [[nodiscard]]
  Result<WriteOutcome> WriteSync(NodeId coordinator, Update update) {
    return WriteSync(coordinator, 0, std::move(update));
  }
  [[nodiscard]] Result<ReadOutcome> ReadSync(NodeId coordinator,
                               storage::ObjectId object = 0);
  [[nodiscard]] Result<TxnWriteOutcome> TxnWriteSync(
      NodeId coordinator, std::vector<TxnWriteSpec> specs);
  [[nodiscard]] Status CheckEpochSync(NodeId initiator,
                                      storage::ObjectId object = 0);

  /// WriteSync with bounded retries on lock conflicts (randomized
  /// backoff); the usual way clients drive writes. `max_attempts` < 1
  /// returns InvalidArgument without running anything.
  [[nodiscard]] Result<WriteOutcome> WriteSyncRetry(NodeId coordinator,
                                      storage::ObjectId object, Update update,
                                      int max_attempts);
  [[nodiscard]]
  Result<WriteOutcome> WriteSyncRetry(NodeId coordinator, Update update,
                                      int max_attempts = 10) {
    return WriteSyncRetry(coordinator, 0, std::move(update), max_attempts);
  }
  [[nodiscard]] Result<ReadOutcome> ReadSyncRetry(NodeId coordinator,
                                    storage::ObjectId object,
                                    int max_attempts = 10);

  // --- fault injection ---
  void Crash(NodeId id);
  void Recover(NodeId id);
  void Partition(const std::vector<NodeSet>& groups);
  void Heal();
  NodeSet UpNodes() const;

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
  void RunFor(sim::Time duration);

  // --- invariant checking (test support) ---

  /// Lemma-1 style epoch invariants per object over its home nodes, valid
  /// at quiescence (no prepared transaction anywhere): nodes sharing an
  /// epoch number agree on the epoch list and belong to it; only the
  /// highest epoch number present can assemble a write quorum from its own
  /// members.
  [[nodiscard]] Status CheckEpochInvariants() const;

  /// Per object over its home nodes: all non-stale replicas at the
  /// maximum version hold identical data; stale replicas are strictly
  /// behind their desired version or awaiting ClearStale.
  [[nodiscard]] Status CheckReplicaConsistency() const;

  /// True iff no node currently has a prepared-but-undecided 2PC action.
  bool Quiescent() const;

  /// Audits history() for linearizability (analysis::AuditHistory, from
  /// the options' initial value). An inconclusive verdict is an error.
  [[nodiscard]] Status CheckHistory() const;

 private:
  /// Starts an operation with `start(done)` and steps the simulation until
  /// `done` fires (events after completion stay queued). If the event
  /// queue drains first — the operation lost its continuation: a bug or a
  /// crashed coordinator — returns Internal(`drained`).
  template <typename T, typename Start>
  T RunSync(Start start, const char* drained);
  /// Repeats `attempt()` while the retry policy allows, up to
  /// `max_attempts` times, with randomized backoff in between.
  template <typename T, typename Attempt>
  T Retry(int max_attempts, Attempt attempt);

  ClusterOptions options_;
  sim::Simulator sim_;
  Rng rng_;
  std::unique_ptr<ObjectTable> table_;  ///< Sharded mode only.
  NodeSet all_;
  uint32_t num_objects_;
  std::unique_ptr<coterie::CoterieRule> rule_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  std::vector<std::unique_ptr<EpochMux>> muxes_;
  analysis::ClientHistory history_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_CLUSTER_H_
