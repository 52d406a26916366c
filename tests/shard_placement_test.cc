#include "protocol/placement.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace dcp::protocol {
namespace {

PlacementOptions DefaultOptions() {
  PlacementOptions p;
  p.num_nodes = 7;
  p.num_objects = 64;
  p.replication_factor = 3;
  p.seed = 42;
  return p;
}

TEST(ObjectTable, PlacesEveryObjectOnReplicationFactorNodes) {
  ObjectTable table(DefaultOptions());
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    const ObjectPlacement& p = table.placement(o);
    EXPECT_EQ(p.replicas.Size(), 3u) << "object " << o;
    EXPECT_EQ(p.ranking.size(), 3u) << "object " << o;
    // The ranking and the set agree.
    for (NodeId n : p.ranking) {
      EXPECT_TRUE(p.replicas.Contains(n));
    }
    EXPECT_TRUE(p.replicas.IsSubsetOf(table.pool()));
  }
}

TEST(ObjectTable, ReplicationFactorClampedToPool) {
  PlacementOptions p = DefaultOptions();
  p.num_nodes = 3;
  p.replication_factor = 5;
  ObjectTable table(p);
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    EXPECT_EQ(table.placement(o).replicas.Size(), 3u);
  }
}

TEST(ObjectTable, SameSeedSameTable) {
  ObjectTable a(DefaultOptions());
  ObjectTable b(DefaultOptions());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  for (storage::ObjectId o = 0; o < a.num_objects(); ++o) {
    EXPECT_EQ(a.placement(o).replicas, b.placement(o).replicas);
    EXPECT_EQ(a.placement(o).ranking, b.placement(o).ranking);
  }
}

TEST(ObjectTable, DifferentSeedDifferentTable) {
  PlacementOptions p = DefaultOptions();
  ObjectTable a(p);
  p.seed = 43;
  ObjectTable b(p);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(ObjectTable, LoadIsRoughlyBalanced) {
  PlacementOptions p = DefaultOptions();
  p.num_objects = 512;
  ObjectTable table(p);
  std::map<NodeId, uint32_t> load = table.ReplicaLoad();
  ASSERT_EQ(load.size(), 7u);
  // 512 objects x 3 replicas over 7 nodes ~ 219 each; rendezvous hashing
  // should stay within a loose factor-of-two band.
  uint32_t expected = 512 * 3 / 7;
  for (const auto& [node, n] : load) {
    EXPECT_GT(n, expected / 2) << "node " << node;
    EXPECT_LT(n, expected * 2) << "node " << node;
  }
}

TEST(ObjectTable, CatalogListsHostedObjectsAndFullDirectory) {
  ObjectTable table(DefaultOptions());
  const std::vector<uint8_t> value = {7, 7};
  for (NodeId node : table.pool()) {
    NodeCatalog catalog = table.Catalog(node, value);
    ASSERT_EQ(catalog.directory.size(), table.num_objects());
    size_t hosted = 0;
    for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
      EXPECT_EQ(catalog.directory.at(o), table.placement(o).replicas);
      if (!table.placement(o).replicas.Contains(node)) continue;
      ASSERT_LT(hosted, catalog.hosted.size());
      const HostedObjectSpec& spec = catalog.hosted[hosted++];
      EXPECT_EQ(spec.id, o);
      EXPECT_EQ(spec.home, table.placement(o).replicas);
      EXPECT_EQ(spec.initial_value, value);
    }
    EXPECT_EQ(hosted, catalog.hosted.size()) << "node " << node;
  }
}

}  // namespace
}  // namespace dcp::protocol
