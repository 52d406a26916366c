#include <gtest/gtest.h>

#include <vector>

#include "protocol/cluster.h"
#include "storage/versioned_object.h"

namespace dcp::protocol {
namespace {

std::vector<uint8_t> Bytes(const char* s) {
  return std::vector<uint8_t>(s, s + std::string(s).size());
}

ClusterOptions BasicOptions(uint32_t n = 9) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 42;
  opts.initial_value = Bytes("initial!");
  return opts;
}

TEST(ProtocolBasic, SingleWriteAndRead) {
  Cluster cluster(BasicOptions());
  auto w = cluster.WriteSync(0, Update::Partial(0, Bytes("hello")));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->version, 1u);

  auto r = cluster.ReadSync(3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 1u);
  // Partial write patches bytes in place over "initial!".
  EXPECT_EQ(r->data, Bytes("helloal!"));

  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ProtocolBasic, SequentialWritesIncrementVersions) {
  Cluster cluster(BasicOptions());
  for (int i = 1; i <= 10; ++i) {
    auto w = cluster.WriteSyncRetry(static_cast<NodeId>(i % 9),
                                    Update::Partial(0, {uint8_t(i)}));
    ASSERT_TRUE(w.ok()) << "write " << i << ": " << w.status().ToString();
    EXPECT_EQ(w->version, static_cast<Version>(i));
  }
  auto r = cluster.ReadSync(5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 10u);
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ProtocolBasic, PartialWritesMarkNonQuorumReplicasStale) {
  Cluster cluster(BasicOptions());
  auto w = cluster.WriteSync(0, Update::Partial(0, Bytes("x")));
  ASSERT_TRUE(w.ok());
  // Some replicas were in the quorum but not good (they all started
  // current, so actually all quorum members are good on the first write).
  // After several writes from the same coordinator, replicas outside its
  // quorums fall behind but are only marked stale once touched.
  uint32_t stale = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i).store().stale()) ++stale;
  }
  // First write: all locked replicas were current, so no stale marks yet.
  EXPECT_EQ(stale, 0u);
}

TEST(ProtocolBasic, StaleReplicasCatchUpViaPropagation) {
  Cluster cluster(BasicOptions());
  // Writes from different coordinators touch different quorums; replicas
  // that respond with an old version get marked stale and then caught up
  // asynchronously by the propagation protocol.
  for (int i = 0; i < 6; ++i) {
    auto w = cluster.WriteSyncRetry(static_cast<NodeId>(i),
                                    Update::Partial(static_cast<uint64_t>(i),
                                                    {uint8_t('a' + i)}));
    ASSERT_TRUE(w.ok()) << w.status().ToString();
  }
  // Let propagation drain.
  cluster.RunFor(2000);
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  // Every replica that was ever marked stale should be current again.
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    EXPECT_FALSE(cluster.node(i).store().stale())
        << "node " << i << " still stale: "
        << cluster.node(i).store().DebugString();
  }
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ProtocolBasic, ReadsSeeLatestCommittedWrite) {
  Cluster cluster(BasicOptions());
  for (int i = 0; i < 5; ++i) {
    auto w = cluster.WriteSyncRetry(static_cast<NodeId>(2 * i % 9),
                                    Update::Partial(0, {uint8_t(i)}));
    ASSERT_TRUE(w.ok());
    auto r = cluster.ReadSyncRetry(static_cast<NodeId>((2 * i + 5) % 9), 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->version, w->version);
    EXPECT_EQ(r->data[0], uint8_t(i));
  }
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ProtocolBasic, EpochInvariantsHoldInitially) {
  Cluster cluster(BasicOptions());
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  auto s = cluster.CheckEpochSync(0);
  EXPECT_TRUE(s.ok()) << s.ToString();  // No failures: no change needed.
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    EXPECT_EQ(cluster.node(i).store().epoch_number(), 0u);
  }
}

}  // namespace
}  // namespace dcp::protocol
