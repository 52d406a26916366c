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

TEST(ObjectTable, CatalogGivesEveryObjectItsLineage) {
  ObjectTable table(DefaultOptions());
  Catalog sharded = BuildCatalog(table.pool(), table.num_objects(), &table);
  ASSERT_EQ(sharded.size(), table.num_objects());
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    EXPECT_EQ(sharded.at(o).scope, LineageScope(o));
    EXPECT_EQ(sharded.at(o).members, table.placement(o).replicas);
  }
  // Without a table every object belongs to the one group-wide lineage.
  Catalog group = BuildCatalog(table.pool(), 4, nullptr);
  ASSERT_EQ(group.size(), 4u);
  for (const auto& [o, home] : group) {
    EXPECT_FALSE(home.scope.has_value()) << "object " << o;
    EXPECT_EQ(home.members, table.pool());
  }
}

}  // namespace
}  // namespace dcp::protocol
