#ifndef DCP_HARNESS_SOCKET_CLUSTER_H_
#define DCP_HARNESS_SOCKET_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "protocol/deployment.h"
#include "protocol/operations.h"
#include "protocol/replica_node.h"
#include "runtime/socket_transport.h"

namespace dcp::harness {

struct SocketClusterOptions {
  uint32_t num_nodes = 5;
  /// Data items, ids [0, num_objects). Unless `sharded`, every node hosts
  /// all of them and they share one epoch.
  uint32_t num_objects = 1;
  /// Sharded deployment: place each object onto a `replication_factor`
  /// subset of the pool (protocol::ObjectTable, seeded by `placement_seed`)
  /// and give it its own epoch lineage. Write/Read route the same; epoch
  /// checks are per object (CheckEpochSync(initiator, object)).
  bool sharded = false;
  uint32_t replication_factor = 3;
  /// Seeds the placement table and the deployment's RNG (retry backoff,
  /// RouteCoordinator), as ClusterOptions::seed does on the simulator.
  uint64_t placement_seed = 7;
  protocol::CoterieKind coterie = protocol::CoterieKind::kMajority;
  std::vector<uint8_t> initial_value;  ///< Shared by all objects.
  protocol::ReplicaNodeOptions node_options;
  protocol::WriteOptions write_options;
  /// Forwarded to SocketTransportOptions (0 = auto).
  uint32_t num_workers = 0;
};

/// The socket backend of protocol::Deployment: the nodes over a loopback
/// TCP mesh (rt::SocketTransport). A blocking call is posted onto the
/// coordinator's runtime and waits up to 20 s of real time, then returns
/// TimedOut; RunFor sleeps. Blocking calls are safe from any non-node
/// thread; Start/Stop must not race them. No client history is recorded
/// (ClientHistory is single-threaded), so CheckHistory() is an error; the
/// other checkers are valid only after Stop().
class SocketCluster : public protocol::Deployment {
 public:
  explicit SocketCluster(SocketClusterOptions options);
  ~SocketCluster() override;

  /// Starts the transport (sockets + threads). Nodes are registered by
  /// construction, so traffic may flow as soon as this returns.
  [[nodiscard]] Status Start();
  void Stop();

  [[nodiscard]] rt::SocketTransport& transport() { return transport_; }

  /// Administrative fail-stop: a down node drops inbound and outbound
  /// traffic (its threads stay alive).
  void SetNodeUp(NodeId id, bool up);

  void RunFor(rt::Time duration) override;

 protected:
  [[nodiscard]] Status Await(NodeId at, Call call,
                             const char* what) override;

 private:
  rt::SocketTransport transport_;
};

}  // namespace dcp::harness

#endif  // DCP_HARNESS_SOCKET_CLUSTER_H_
