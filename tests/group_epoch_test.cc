// Tests for group epoch management (Section 2): several data items
// replicated on the same node set share one epoch, one epoch-checking
// stream, and one epoch-change 2PC — amortizing the overhead — while
// reads, writes, locks, staleness, and propagation stay per-object.

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions GroupOptions(uint32_t objects) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.num_objects = objects;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 77;
  opts.initial_value = {0, 0, 0, 0};
  return opts;
}

TEST(GroupEpoch, ObjectsAreIndependentForWritesAndReads) {
  Cluster cluster(GroupOptions(4));
  for (storage::ObjectId obj = 0; obj < 4; ++obj) {
    auto w = cluster.WriteSyncRetry(static_cast<NodeId>(obj), obj,
                                    Update::Partial(0, {uint8_t(obj + 1)}),
                                    10);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    EXPECT_EQ(w->version, 1u);  // Versions are per object.
  }
  for (storage::ObjectId obj = 0; obj < 4; ++obj) {
    auto r = cluster.ReadSyncRetry(8, obj, 10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->data[0], uint8_t(obj + 1));
  }
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(GroupEpoch, PerObjectLocksDoNotConflictAcrossObjects) {
  Cluster cluster(GroupOptions(2));
  // Start a write on object 0 and, before it finishes, one on object 1
  // from a different coordinator. Both must commit (no lock conflicts).
  bool done0 = false, ok0 = false, done1 = false, ok1 = false;
  cluster.Write(0, 0, Update::Partial(0, {1}), [&](Result<WriteOutcome> r) {
    done0 = true;
    ok0 = r.ok();
  });
  cluster.Write(5, 1, Update::Partial(0, {2}), [&](Result<WriteOutcome> r) {
    done1 = true;
    ok1 = r.ok();
  });
  while ((!done0 || !done1) && cluster.simulator().Step()) {
  }
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

TEST(GroupEpoch, SameObjectWritesStillExclude) {
  Cluster cluster(GroupOptions(2));
  bool done0 = false, ok0 = false, done1 = false, ok1 = false;
  cluster.Write(0, 1, Update::Partial(0, {1}), [&](Result<WriteOutcome> r) {
    done0 = true;
    ok0 = r.ok();
  });
  cluster.Write(5, 1, Update::Partial(0, {2}), [&](Result<WriteOutcome> r) {
    done1 = true;
    ok1 = r.ok();
  });
  while ((!done0 || !done1) && cluster.simulator().Step()) {
  }
  // Both may abort on the conflict (the deadlock-free refuse-and-retry
  // policy); what must NOT happen is both committing version 1.
  int committed = (ok0 ? 1 : 0) + (ok1 ? 1 : 0);
  EXPECT_LE(committed, 2);
  // Retried writes serialize cleanly behind whatever committed.
  auto w = cluster.WriteSyncRetry(3, 1, Update::Partial(0, {3}), 10);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->version, static_cast<Version>(committed + 1));
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(GroupEpoch, OneEpochChangeCoversAllObjects) {
  Cluster cluster(GroupOptions(4));
  // Write different amounts to each object, so per-object versions vary.
  for (storage::ObjectId obj = 0; obj < 4; ++obj) {
    for (uint32_t k = 0; k <= obj; ++k) {
      ASSERT_TRUE(cluster
                      .WriteSyncRetry(static_cast<NodeId>(k % 9), obj,
                                      Update::Partial(0, {uint8_t(k)}), 10)
                      .ok());
    }
  }
  cluster.RunFor(2000);
  cluster.Crash(4);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());

  NodeSet expected = NodeSet::Universe(9);
  expected.Erase(4);
  for (NodeId i = 0; i < 9; ++i) {
    if (i == 4) continue;
    // The shared epoch record moved once, for every object.
    EXPECT_EQ(cluster.node(i).epoch().number, 1u);
    EXPECT_EQ(cluster.node(i).epoch().list, expected);
    for (storage::ObjectId obj = 0; obj < 4; ++obj) {
      EXPECT_EQ(cluster.node(i).store(obj).epoch_number(), 1u);
    }
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
}

TEST(GroupEpoch, ReadmissionMarksOnlyBehindObjectsStale) {
  Cluster cluster(GroupOptions(3));
  cluster.Crash(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  // Write objects 0 and 2 while node 8 is away; object 1 stays at v0.
  ASSERT_TRUE(cluster.WriteSyncRetry(0, 0, Update::Partial(0, {9}), 10).ok());
  ASSERT_TRUE(cluster.WriteSyncRetry(1, 2, Update::Partial(0, {7}), 10).ok());

  cluster.Recover(8);
  ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
  // Node 8 re-enters: stale for objects 0 and 2 (it missed writes), but
  // current for object 1 (nothing happened there).
  EXPECT_TRUE(cluster.node(8).store(0).stale());
  EXPECT_FALSE(cluster.node(8).store(1).stale());
  EXPECT_TRUE(cluster.node(8).store(2).stale());

  cluster.RunFor(3000);  // Propagation drains per object.
  EXPECT_FALSE(cluster.node(8).store(0).stale());
  EXPECT_FALSE(cluster.node(8).store(2).stale());
  EXPECT_EQ(cluster.node(8).store(0).version(), 1u);
  EXPECT_EQ(cluster.node(8).store(2).version(), 1u);
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

TEST(GroupEpoch, EpochChangeBlockedIfAnyObjectLacksCurrentReplica) {
  Cluster cluster(GroupOptions(2));
  // Hand-build the dangerous state for object 1: the only current
  // replica is node 4, everyone else stale (desired version 3).
  for (uint32_t i = 0; i < 9; ++i) {
    auto& store = cluster.node(i).store(1);
    int target = (i == 4) ? 3 : 2;
    for (int v = 0; v < target; ++v) {
      store.object().Apply(storage::Update::Partial(0, {uint8_t(v)}));
    }
    if (i != 4) store.MarkStale(3);
  }
  cluster.Crash(4);
  // Object 0 is fine everywhere, but object 1 has no current replica
  // among the survivors: the group epoch change must refuse.
  Status s = cluster.CheckEpochSync(0);
  EXPECT_TRUE(s.IsStaleData()) << s.ToString();
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).epoch().number, 0u);
  }
  // Object 0 is still writable through the old epoch (HeavyProcedure).
  auto w = cluster.WriteSyncRetry(0, 0, Update::Partial(0, {1}), 10);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
}

TEST(GroupEpoch, PollTrafficIsPerGroupNotPerObject) {
  // The amortization claim, observed directly: an epoch check costs one
  // poll round regardless of how many objects the group holds.
  for (uint32_t objects : {1u, 8u}) {
    Cluster cluster(GroupOptions(objects));
    cluster.metrics().ResetPrefix("net.");
    ASSERT_TRUE(cluster.CheckEpochSync(0).ok());
    EXPECT_EQ(cluster.metrics().CounterValue("net.type.epoch-poll.sent"), 9u)
        << objects << " objects";
  }
}

TEST(GroupEpoch, ChurnWithManyObjects) {
  ClusterOptions opts = GroupOptions(3);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 200;
  Cluster cluster(opts);
  Rng rng(4242);
  for (int round = 0; round < 8; ++round) {
    NodeId victim = static_cast<NodeId>(rng.Uniform(9));
    cluster.Crash(victim);
    cluster.RunFor(1200);
    for (storage::ObjectId obj = 0; obj < 3; ++obj) {
      NodeId coord = static_cast<NodeId>((victim + 1 + obj) % 9);
      auto w = cluster.WriteSyncRetry(coord, obj,
                                      Update::Partial(obj, {uint8_t(round)}),
                                      8);
      EXPECT_TRUE(w.ok()) << "round " << round << " object " << obj << ": "
                          << w.status().ToString();
    }
    cluster.Recover(victim);
    cluster.RunFor(1200);
  }
  cluster.RunFor(10000);
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
  for (NodeId i = 0; i < 9; ++i) {
    for (storage::ObjectId obj = 0; obj < 3; ++obj) {
      EXPECT_FALSE(cluster.node(i).store(obj).stale())
          << "node " << i << " object " << obj;
    }
  }
}

// The epoch poll takes no locks, so a write can commit between the poll
// and the epoch install's prepare. The install's stale marking was
// computed from the polled state, so a participant whose object moved
// since must refuse the prepare; the check then polls again and installs
// the epoch on the write's state.
TEST(GroupEpoch, PrepareRefusedWhenAWriteCommitsAfterThePoll) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.num_objects = 1;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 77;
  opts.initial_value = {0};
  Cluster cluster(opts);
  cluster.Crash(4);  // The check will re-form the epoch as {0, 1, 2, 3}.
  // Delay the poll replies of nodes 1 and 2, so node 0's check evaluates
  // (and prepares) only after node 3's write has committed and unlocked.
  net::LinkFaults slow;
  slow.latency = net::LatencyModel{40.0, 0.0};
  cluster.InjectLinkFault(1, 0, slow);
  cluster.InjectLinkFault(2, 0, slow);

  std::optional<Status> check;
  std::optional<Result<WriteOutcome>> write;
  cluster.CheckEpoch(0, 0, [&](Status s) { check = s; });
  cluster.Write(3, 0, Update::Partial(0, {7}),
                [&](Result<WriteOutcome> r) { write = std::move(r); });
  while ((!check || !write) && cluster.simulator().Step()) {
  }
  ASSERT_TRUE(write && check);
  ASSERT_TRUE(write->ok()) << write->status().ToString();
  EXPECT_EQ(cluster.metrics().CounterValue("twopc.aborted"), 1u)
      << "the install computed from the first poll must be refused";
  ASSERT_TRUE(check->ok()) << check->ToString();
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).epoch().list, (NodeSet{0, 1, 2, 3}))
        << "node " << i;
  }

  cluster.ClearNetworkFaults();
  auto r = cluster.ReadSyncRetry(1, 0, 10);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data[0], 7);
  cluster.RunFor(1000);
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

}  // namespace
}  // namespace dcp::protocol
