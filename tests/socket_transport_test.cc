// Threaded smoke test for the socket transport backend: five
// ReplicaNodes over a real loopback TCP mesh driving the actual
// protocol stack — total writes, partial writes, reads, and an epoch
// change around a failed node. This is the suite the TSan CI lane runs
// under -fsanitize=thread.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "harness/socket_cluster.h"
#include "storage/versioned_object.h"

namespace dcp::harness {
namespace {

using storage::Update;

SocketClusterOptions SmokeOptions() {
  SocketClusterOptions o;
  o.num_nodes = 5;
  o.coterie = protocol::CoterieKind::kMajority;
  o.initial_value = {0, 0, 0, 0, 0, 0, 0, 0};
  return o;
}

/// Waits until no node owes propagation for object 0. A transfer holds
/// its target replica's lock, and an epoch install or a read that meets a
/// lock fails, so one issued right after a partial write waits for them.
/// Each node's duty is read on that node's runtime, as a blocking call
/// runs there.
void AwaitPropagationDrained(SocketCluster& cluster) {
  for (int round = 0; round < 500; ++round) {
    bool owed = false;
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      auto duty = std::make_shared<std::promise<bool>>();
      std::future<bool> owes = duty->get_future();
      cluster.transport().runtime(n)->Schedule(0, [&cluster, n, duty] {
        duty->set_value(!cluster.node(n).pending_propagation(0).Empty());
      });
      ASSERT_EQ(owes.wait_for(std::chrono::seconds(20)),
                std::future_status::ready);
      owed = owed || owes.get();
    }
    if (!owed) return;
    cluster.RunFor(10);
  }
  FAIL() << "propagation never drained";
}

TEST(SocketTransportTest, StartStopIsCleanAndIdempotent) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Start().ok());  // Second Start is a no-op.
  cluster.Stop();
  cluster.Stop();  // Second Stop is a no-op.
}

TEST(SocketTransportTest, WritesReadsAndPartialWritesOverSockets) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  // Total write from node 0.
  auto w1 = cluster.WriteSyncRetry(0, 0, Update::Total({1, 2, 3, 4}));
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  EXPECT_EQ(w1->version, 1u);

  // Partial write from a different coordinator: the paper's partial-write
  // support, over real sockets.
  auto w2 = cluster.WriteSyncRetry(2, 0, Update::Partial(1, {9, 9}));
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  EXPECT_EQ(w2->version, 2u);

  // Every coordinator reads back the merged value.
  for (NodeId reader = 0; reader < cluster.num_nodes(); ++reader) {
    auto r = cluster.ReadSync(reader);
    ASSERT_TRUE(r.ok()) << "reader " << reader << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->version, 2u) << "reader " << reader;
    EXPECT_EQ(r->data, (std::vector<uint8_t>{1, 9, 9, 4})) << "reader "
                                                           << reader;
  }

  // Real frames crossed the wire (not just self-delivery).
  EXPECT_GT(cluster.transport().counters().frames_sent, 0u);
  EXPECT_GT(cluster.transport().counters().frames_received, 0u);
}

TEST(SocketTransportTest, ZeroRetryAttemptsIsAnInvalidArgument) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());
  for (int attempts : {0, -1}) {
    auto w = cluster.WriteSyncRetry(0, 0, Update::Total({5}), attempts);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument)
        << w.status().ToString();
    auto r = cluster.ReadSyncRetry(0, 0, attempts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  // No attempt ran, so the object is still at its initial version.
  auto r = cluster.ReadSync(0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 0u);
}

TEST(SocketTransportTest, EpochChangeExcludesAndReadmitsAFailedNode) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  auto w1 = cluster.WriteSyncRetry(0, 0, Update::Total({7, 7}));
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();

  // Node 4 fail-stops; the epoch check shrinks the epoch to the
  // respondents {0,1,2,3}.
  cluster.SetNodeUp(4, false);
  Status s = cluster.CheckEpochSync(0);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(0).epoch().list.ToVector(),
            (std::vector<NodeId>{0, 1, 2, 3}));

  // The protocol keeps serving writes and reads without node 4.
  auto w2 = cluster.WriteSyncRetry(1, 0, Update::Partial(1, {8}));
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  auto r = cluster.ReadSync(3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data, (std::vector<uint8_t>{7, 8}));

  // Node 4 returns; a second epoch check readmits it (marked stale, then
  // caught up by propagation).
  AwaitPropagationDrained(cluster);
  cluster.SetNodeUp(4, true);
  s = cluster.CheckEpochSync(2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(2).epoch().list.ToVector(),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));

  // A read coordinated by the readmitted node sees the current value.
  auto r4 = cluster.ReadSync(4);
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_EQ(r4->data, (std::vector<uint8_t>{7, 8}));
}

TEST(SocketTransportTest, InvariantCheckersRunAfterStop) {
  // The deployment's checkers, on the socket backend: writes, partial
  // writes and an epoch change, then Stop() so no worker thread is
  // touching node state while the checkers read it.
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  auto w1 = cluster.WriteSyncRetry(0, 0, Update::Total({3, 1, 4, 1}));
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  cluster.SetNodeUp(4, false);
  Status s = cluster.CheckEpochSync(1);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto w2 = cluster.WriteSyncRetry(2, 0, Update::Partial(1, {5, 9}));
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  AwaitPropagationDrained(cluster);
  cluster.SetNodeUp(4, true);
  s = cluster.CheckEpochSync(3);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto w3 = cluster.WriteSyncRetry(4, 0, Update::Partial(3, {2}));
  ASSERT_TRUE(w3.ok()) << w3.status().ToString();
  auto r = cluster.ReadSyncRetry(0, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data, (std::vector<uint8_t>{3, 5, 9, 2}));

  cluster.RunFor(200);  // Let unlocks and propagation drain.
  cluster.Stop();
  EXPECT_TRUE(cluster.Quiescent());
  Status consistent = cluster.CheckReplicaConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
  Status epochs = cluster.CheckEpochInvariants();
  EXPECT_TRUE(epochs.ok()) << epochs.ToString();
  // Sockets record no client history, so there is nothing to audit: an
  // error, never a vacuous OK.
  EXPECT_FALSE(cluster.CheckHistory().ok());
}

TEST(SocketTransportTest, ConcurrentCoordinatorsMakeProgress) {
  // Writers on distinct coordinators race for the same object from real
  // threads; conflict-retry must let every one land eventually.
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  std::vector<Status> results(kWriters, Status::OK());
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&cluster, &results, i] {
      auto w = cluster.WriteSyncRetry(
          NodeId{static_cast<uint32_t>(i)}, 0,
          Update::Partial(static_cast<uint64_t>(i), {uint8_t(i + 1)}),
          /*max_attempts=*/50);
      results[static_cast<size_t>(i)] = w.status();
    });
  }
  for (auto& t : writers) t.join();
  for (int i = 0; i < kWriters; ++i) {
    EXPECT_TRUE(results[static_cast<size_t>(i)].ok())
        << "writer " << i << ": " << results[static_cast<size_t>(i)].ToString();
  }

  // The partial writes leave propagation owed, and a read that meets a
  // transfer's lock fails with Conflict.
  AwaitPropagationDrained(cluster);
  auto r = cluster.ReadSync(0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, static_cast<storage::Version>(kWriters));
  EXPECT_EQ(std::vector<uint8_t>(r->data.begin(), r->data.begin() + kWriters),
            (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST(SocketTransportTest, ShardedMultiObjectClusterOverSockets) {
  // Sharded deployment over the real transport: objects live on
  // placement-chosen subsets with private epoch lineages.
  SocketClusterOptions o = SmokeOptions();
  o.sharded = true;
  o.num_objects = 16;
  o.replication_factor = 3;
  SocketCluster cluster(o);
  ASSERT_TRUE(cluster.Start().ok());
  const protocol::ObjectTable* table = cluster.table();
  ASSERT_NE(table, nullptr);

  for (storage::ObjectId obj = 0; obj < o.num_objects; ++obj) {
    NodeId coord = table->placement(obj).ranking[0];
    auto w = cluster.WriteSyncRetry(
        coord, obj, Update::Total({static_cast<uint8_t>(obj), 0xAB}));
    ASSERT_TRUE(w.ok()) << "object " << obj << ": " << w.status().ToString();
    EXPECT_EQ(w->version, 1u);
    // Read back through a different home replica.
    NodeId reader = table->placement(obj).ranking[1];
    auto r = cluster.ReadSync(reader, obj);
    ASSERT_TRUE(r.ok()) << "object " << obj << ": " << r.status().ToString();
    EXPECT_EQ(r->data,
              (std::vector<uint8_t>{static_cast<uint8_t>(obj), 0xAB}));
  }
}

TEST(SocketTransportTest, ShardedScopedEpochCheckShrinksOneLineage) {
  SocketClusterOptions o = SmokeOptions();
  o.sharded = true;
  o.num_objects = 16;
  o.replication_factor = 3;
  SocketCluster cluster(o);
  ASSERT_TRUE(cluster.Start().ok());
  const protocol::ObjectTable* table = cluster.table();
  ASSERT_NE(table, nullptr);

  // One object homed on node 4, one not — their lineages must move
  // independently.
  storage::ObjectId on4 = o.num_objects, off4 = o.num_objects;
  for (storage::ObjectId obj = 0; obj < o.num_objects; ++obj) {
    if (table->placement(obj).replicas.Contains(4)) {
      if (on4 == o.num_objects) on4 = obj;
    } else if (off4 == o.num_objects) {
      off4 = obj;
    }
  }
  ASSERT_LT(on4, o.num_objects);
  ASSERT_LT(off4, o.num_objects);

  cluster.SetNodeUp(4, false);
  NodeSet live_home = table->placement(on4).replicas;
  live_home.Erase(4);
  NodeId initiator = live_home.NthMember(0);
  Status s = cluster.CheckEpochSync(initiator, on4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(initiator).store(on4).epoch_number(), 1u);
  EXPECT_EQ(cluster.node(initiator).store(on4).epoch_list(), live_home);
  // The other object's lineage is untouched by node 4's failure.
  NodeId other = table->placement(off4).ranking[0];
  EXPECT_EQ(cluster.node(other).store(off4).epoch_number(), 0u);

  // Writes keep landing in the shrunken lineage.
  auto w = cluster.WriteSyncRetry(initiator, on4, Update::Total({5, 5}));
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  // Node 4 returns; a second scoped check readmits it.
  cluster.SetNodeUp(4, true);
  s = cluster.CheckEpochSync(initiator, on4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(initiator).store(on4).epoch_list(),
            table->placement(on4).replicas);
  auto r = cluster.ReadSync(live_home.NthMember(1), on4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data, (std::vector<uint8_t>{5, 5}));
}

}  // namespace
}  // namespace dcp::harness
