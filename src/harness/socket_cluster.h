#ifndef DCP_HARNESS_SOCKET_CLUSTER_H_
#define DCP_HARNESS_SOCKET_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "coterie/coterie.h"
#include "protocol/cluster.h"
#include "protocol/operations.h"
#include "protocol/placement.h"
#include "protocol/replica_node.h"
#include "runtime/socket_transport.h"
#include "util/result.h"

namespace dcp::harness {

struct SocketClusterOptions {
  uint32_t num_nodes = 5;
  /// Data items in the replica group (all share one epoch).
  uint32_t num_objects = 1;
  /// Sharded deployment: place each object onto a `replication_factor`
  /// subset of the pool (protocol::ObjectTable, seeded by `placement_seed`)
  /// and give it its own epoch lineage. Write/Read route the same; epoch
  /// checks are per object (CheckEpochSync(initiator, object)).
  bool sharded = false;
  uint32_t replication_factor = 3;
  uint64_t placement_seed = 7;
  protocol::CoterieKind coterie = protocol::CoterieKind::kMajority;
  std::vector<uint8_t> initial_value;  ///< Shared by all objects.
  protocol::ReplicaNodeOptions node_options;
  protocol::WriteOptions write_options;
  /// Forwarded to SocketTransportOptions (0 = auto).
  uint32_t num_workers = 0;
};

/// The Cluster analogue for the socket backend: N replica nodes wired
/// over a real loopback TCP mesh (see rt::SocketTransport), driven by
/// blocking client calls from the test's thread.
///
/// The protocol stack under this harness is byte-for-byte the one the
/// simulator runs — same ReplicaNode, same operations — only the
/// transport seam differs. Synchronous operations post the client call
/// onto the coordinator's runtime (protocol code must run on its node's
/// execution context) and block on a future for the completion.
///
/// Operations here record no client history: they complete in real
/// time, and the linearizability audits run on the deterministic
/// backend where they are reproducible.
///
/// Thread safety: this facade holds no locks of its own — each blocking
/// call synchronizes through a one-shot promise/future pair handed to
/// the coordinator's runtime, and all mutable protocol state lives
/// behind the transport's annotated mutexes (util/thread_annotations.h,
/// DESIGN.md section 13). Blocking calls are safe from any non-node
/// thread; Start/Stop must not race them.
class SocketCluster {
 public:
  explicit SocketCluster(SocketClusterOptions options);
  ~SocketCluster();
  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  /// Starts the transport (sockets + threads). Nodes are registered by
  /// construction, so traffic may flow as soon as this returns.
  [[nodiscard]] Status Start();
  void Stop();

  [[nodiscard]] rt::SocketTransport& transport() { return transport_; }
  [[nodiscard]] protocol::ReplicaNode& node(NodeId id) { return *nodes_[id]; }
  [[nodiscard]] uint32_t num_nodes() const {
    return static_cast<uint32_t>(nodes_.size());
  }
  [[nodiscard]] NodeSet all_nodes() const {
    return NodeSet::Universe(num_nodes());
  }
  [[nodiscard]] const coterie::CoterieRule& rule() const { return *rule_; }

  /// Administrative fail-stop: a down node drops inbound and outbound
  /// traffic (its threads stay alive).
  void SetNodeUp(NodeId id, bool up);

  // --- blocking client operations (callable from any non-node thread) ---
  [[nodiscard]] Result<protocol::WriteOutcome> WriteSync(
      NodeId coordinator, storage::ObjectId object, storage::Update update);
  [[nodiscard]] Result<protocol::WriteOutcome> WriteSync(
      NodeId coordinator, storage::Update update) {
    return WriteSync(coordinator, 0, std::move(update));
  }
  [[nodiscard]] Result<protocol::ReadOutcome> ReadSync(
      NodeId coordinator, storage::ObjectId object = 0);
  /// Epoch check of the lineage that owns `object` (the group-wide one
  /// in group mode).
  [[nodiscard]] Status CheckEpochSync(NodeId initiator,
                                      storage::ObjectId object = 0);

  /// The placement table of a sharded deployment; null in group mode.
  [[nodiscard]] const protocol::ObjectTable* table() const {
    return table_.get();
  }

  /// WriteSync / ReadSync with bounded retries on lock conflicts (linear
  /// real-time backoff) — the socket-side analogues of
  /// Cluster::WriteSyncRetry / ReadSyncRetry.
  [[nodiscard]] Result<protocol::WriteOutcome> WriteSyncRetry(
      NodeId coordinator, storage::ObjectId object, storage::Update update,
      int max_attempts = 10);
  [[nodiscard]] Result<protocol::ReadOutcome> ReadSyncRetry(
      NodeId coordinator, storage::ObjectId object, int max_attempts = 10);

 private:
  SocketClusterOptions options_;
  std::unique_ptr<coterie::CoterieRule> rule_;
  std::unique_ptr<protocol::ObjectTable> table_;  ///< Sharded mode only.
  rt::SocketTransport transport_;
  std::vector<std::unique_ptr<protocol::ReplicaNode>> nodes_;
};

}  // namespace dcp::harness

#endif  // DCP_HARNESS_SOCKET_CLUSTER_H_
