#ifndef DCP_PROTOCOL_PLACEMENT_H_
#define DCP_PROTOCOL_PLACEMENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "protocol/replica_node.h"
#include "storage/replica_store.h"
#include "util/node_set.h"

namespace dcp::protocol {

struct PlacementOptions {
  /// Size of the node pool; the pool is nodes [0, num_nodes).
  uint32_t num_nodes = 7;
  /// Objects are ids [0, num_objects).
  uint32_t num_objects = 64;
  /// Replicas per object (clamped to the pool size).
  uint32_t replication_factor = 3;
  /// Seed of the placement RNG root. Same options => byte-identical table.
  uint64_t seed = 1;
};

/// Where one object lives.
struct ObjectPlacement {
  NodeSet replicas;             ///< The object's home node set.
  std::vector<NodeId> ranking;  ///< Replicas in rendezvous order (best first).
};

/// Deterministic object table: rendezvous (highest-random-weight) hashing
/// over the node pool. The per-(object, node) scores are derived from a
/// single salt drawn once from the seeded placement root, so two tables
/// built from the same options are byte-identical.
class ObjectTable {
 public:
  explicit ObjectTable(PlacementOptions options);

  [[nodiscard]] uint32_t num_objects() const { return options_.num_objects; }
  [[nodiscard]] const NodeSet& pool() const { return pool_; }

  [[nodiscard]] const ObjectPlacement& placement(storage::ObjectId object) const {
    return placements_.at(object);
  }

  /// Objects hosted per pool node (diagnostics / balance tests).
  [[nodiscard]] std::map<NodeId, uint32_t> ReplicaLoad() const;

  /// Digest of the whole table (pool, then every object's ranking in
  /// object order). Two tables with equal fingerprints are byte-identical
  /// for protocol purposes.
  [[nodiscard]] uint64_t Fingerprint() const;

 private:
  uint64_t Score(storage::ObjectId object, NodeId node) const;

  PlacementOptions options_;
  uint64_t salt_ = 0;
  NodeSet pool_;
  std::vector<ObjectPlacement> placements_;
};

/// The catalog every node of a deployment is built from (see
/// ReplicaNode), covering objects [0, num_objects). With `table`, each
/// object is its own lineage over its placement home set (sharded);
/// without one, all objects form one group-wide lineage over `pool`.
[[nodiscard]] Catalog BuildCatalog(const NodeSet& pool, uint32_t num_objects,
                                   const ObjectTable* table);

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_PLACEMENT_H_
