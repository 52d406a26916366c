// Per-owner lock records of ReplicaNode: every release path must clear
// the owner's locks from the stores it touched and drop its record, so
// lock release costs O(objects the owner locked) and no per-owner state
// outlives the locks. Each test drives one node of a sharded cluster
// hosting many objects through raw protocol requests.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

using storage::LockOwner;
using storage::ObjectId;
using storage::Update;
using storage::Version;

constexpr NodeId kNode = 0;

ClusterOptions Options(LockPolicy policy = LockPolicy::kRefuse) {
  ClusterOptions opts;
  opts.num_nodes = 7;
  opts.num_objects = 1024;
  opts.sharded = true;
  opts.replication_factor = 3;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 5;
  opts.initial_value = {0, 0, 0, 0};
  opts.node_options.lock_policy = policy;
  return opts;
}

StagedAction UpdateAction(ObjectId object, Version target) {
  ObjectAction act;
  act.object = object;
  act.apply_update = true;
  act.update = Update::Partial(0, {static_cast<uint8_t>(target)});
  act.update_target_version = target;
  StagedAction staged;
  staged.objects.push_back(std::move(act));
  return staged;
}

StagedAction MarkStaleAction(ObjectId object, Version desired) {
  ObjectAction act;
  act.object = object;
  act.mark_stale = true;
  act.desired_version = desired;
  StagedAction staged;
  staged.objects.push_back(std::move(act));
  return staged;
}

/// Drives node kNode of a sharded cluster through raw requests.
class LockIndexTest : public ::testing::Test {
 protected:
  void Build(LockPolicy policy = LockPolicy::kRefuse) {
    cluster_ = std::make_unique<Cluster>(Options(policy));
    hosted_ = node().HostedObjects();
    ASSERT_GT(hosted_.size(), 100u);
  }

  ReplicaNode& node() { return cluster_->node(kNode); }

  Status Lock(const LockOwner& owner, ObjectId object,
              bool exclusive = true, rt::Time op_started = 0) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner;
    req->object = object;
    req->mode = exclusive ? LockMode::kExclusive : LockMode::kShared;
    req->op_started = op_started;
    return node().HandleRequest(owner.coordinator, msg::kLock, req).status();
  }
  Status Unlock(const LockOwner& owner) {
    auto req = std::make_shared<UnlockRequest>();
    req->owner = owner;
    return node().HandleRequest(owner.coordinator, msg::kUnlock, req).status();
  }
  Status Prepare(const LockOwner& owner, StagedAction action) {
    auto req = std::make_shared<PrepareRequest>();
    req->owner = owner;
    req->action = std::move(action);
    req->participants = NodeSet({kNode, owner.coordinator});
    return node().HandleRequest(owner.coordinator, msg::kPrepare, req)
        .status();
  }
  Status Commit(const LockOwner& owner) {
    auto req = std::make_shared<CommitRequest>();
    req->owner = owner;
    return node().HandleRequest(owner.coordinator, msg::kCommit, req)
        .status();
  }
  Status Abort(const LockOwner& owner) {
    auto req = std::make_shared<AbortRequest>();
    req->owner = owner;
    return node().HandleRequest(owner.coordinator, msg::kAbort, req).status();
  }

  /// Objects whose store at kNode holds `owner`'s lock.
  std::set<ObjectId> HeldBy(const LockOwner& owner) {
    std::set<ObjectId> held;
    for (ObjectId id : hosted_) {
      if (node().store(id).HoldsLock(owner)) held.insert(id);
    }
    return held;
  }
  size_t LockedStores() {
    size_t n = 0;
    for (ObjectId id : hosted_) n += node().store(id).IsLocked() ? 1 : 0;
    return n;
  }

  /// No store holds `owner`'s lock and the record table is empty.
  void ExpectReleased(const LockOwner& owner) {
    EXPECT_TRUE(HeldBy(owner).empty());
    EXPECT_EQ(node().lock_record_count(), 0u);
    EXPECT_TRUE(node().LockIndexConsistent());
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<ObjectId> hosted_;
};

TEST_F(LockIndexTest, CommitReleases) {
  Build();
  LockOwner tx{1, 10};
  ASSERT_TRUE(Lock(tx, hosted_[3]).ok());
  EXPECT_EQ(node().lock_record_count(), 1u);
  EXPECT_TRUE(node().LockIndexConsistent());
  ASSERT_TRUE(Prepare(tx, UpdateAction(hosted_[3], 1)).ok());
  ASSERT_TRUE(Commit(tx).ok());
  EXPECT_EQ(node().store(hosted_[3]).version(), 1u);
  ExpectReleased(tx);
}

TEST_F(LockIndexTest, AbortReleases) {
  Build();
  LockOwner tx{1, 10};
  ASSERT_TRUE(Lock(tx, hosted_[3]).ok());
  ASSERT_TRUE(Lock(tx, hosted_[4]).ok());
  StagedAction action = UpdateAction(hosted_[3], 1);
  action.objects.push_back(UpdateAction(hosted_[4], 1).objects[0]);
  ASSERT_TRUE(Prepare(tx, action).ok());
  ASSERT_TRUE(Abort(tx).ok());
  EXPECT_EQ(node().store(hosted_[3]).version(), 0u);
  ExpectReleased(tx);
}

TEST_F(LockIndexTest, AbortWithoutStagedEntryReleases) {
  Build();
  LockOwner tx{1, 10};
  ASSERT_TRUE(Lock(tx, hosted_[3]).ok());
  ASSERT_TRUE(Lock(tx, hosted_[7]).ok());
  ASSERT_TRUE(Abort(tx).ok());
  ExpectReleased(tx);
}

TEST_F(LockIndexTest, ReadUnlockReleases) {
  Build();
  LockOwner r1{1, 10};
  LockOwner r2{2, 20};
  ASSERT_TRUE(Lock(r1, hosted_[5], /*exclusive=*/false).ok());
  ASSERT_TRUE(Lock(r2, hosted_[5], /*exclusive=*/false).ok());
  ASSERT_TRUE(Lock(r1, hosted_[5], /*exclusive=*/false).ok());  // Re-entrant.
  EXPECT_EQ(node().lock_record_count(), 2u);
  ASSERT_TRUE(Unlock(r1).ok());
  EXPECT_TRUE(HeldBy(r1).empty());
  EXPECT_EQ(HeldBy(r2), std::set<ObjectId>{hosted_[5]});
  EXPECT_EQ(node().lock_record_count(), 1u);
  ASSERT_TRUE(Unlock(r2).ok());
  ExpectReleased(r2);
}

TEST_F(LockIndexTest, UnlockWhileStagedKeepsLock) {
  Build();
  LockOwner tx{1, 10};
  ASSERT_TRUE(Lock(tx, hosted_[3]).ok());
  ASSERT_TRUE(Prepare(tx, UpdateAction(hosted_[3], 1)).ok());
  ASSERT_TRUE(Unlock(tx).ok());
  EXPECT_EQ(HeldBy(tx), std::set<ObjectId>{hosted_[3]});
  EXPECT_EQ(node().lock_record_count(), 1u);
  EXPECT_TRUE(node().LockIndexConsistent());
  ASSERT_TRUE(Commit(tx).ok());
  ExpectReleased(tx);
}

TEST_F(LockIndexTest, RejectedPrepareRollsBack) {
  Build();
  // A staged blocker pins hosted_[9]; a prepare whose footprint also
  // covers hosted_[8] locks that one first and must roll it back.
  LockOwner blocker{2, 20};
  ASSERT_TRUE(Lock(blocker, hosted_[9]).ok());
  ASSERT_TRUE(Prepare(blocker, MarkStaleAction(hosted_[9], 4)).ok());

  LockOwner tx{1, 10};
  StagedAction action = MarkStaleAction(hosted_[8], 3);
  action.objects.push_back(MarkStaleAction(hosted_[9], 3).objects[0]);
  Status s = Prepare(tx, action);
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_TRUE(HeldBy(tx).empty());
  EXPECT_EQ(node().lock_record_count(), 1u);  // The blocker's.
  EXPECT_TRUE(node().LockIndexConsistent());

  ASSERT_TRUE(Abort(blocker).ok());
  ExpectReleased(blocker);
  ExpectReleased(tx);
}

TEST_F(LockIndexTest, WoundEvictionDropsVictimRecord) {
  Build(LockPolicy::kWoundWait);
  cluster_->RunFor(100);
  LockOwner young{1, 10};
  LockOwner old{2, 20};
  ASSERT_TRUE(Lock(young, hosted_[2], true, /*op_started=*/95).ok());
  ASSERT_TRUE(Lock(old, hosted_[2], true, /*op_started=*/90).ok());
  EXPECT_TRUE(HeldBy(young).empty());
  EXPECT_EQ(node().lock_record_count(), 1u);  // Only the wounder's.
  EXPECT_TRUE(node().LockIndexConsistent());
  ASSERT_TRUE(Unlock(old).ok());
  ExpectReleased(old);
}

TEST_F(LockIndexTest, WoundOnOneObjectKeepsVictimsOtherLocks) {
  Build(LockPolicy::kWoundWait);
  cluster_->RunFor(100);
  LockOwner young{1, 10};
  LockOwner old{2, 20};
  ASSERT_TRUE(Lock(young, hosted_[2], true, 95).ok());
  ASSERT_TRUE(Lock(young, hosted_[6], true, 95).ok());
  ASSERT_TRUE(Lock(old, hosted_[2], true, 90).ok());
  EXPECT_EQ(HeldBy(young), std::set<ObjectId>{hosted_[6]});
  EXPECT_EQ(node().lock_record_count(), 2u);
  EXPECT_TRUE(node().LockIndexConsistent());
  ASSERT_TRUE(Unlock(young).ok());
  ASSERT_TRUE(Unlock(old).ok());
  ExpectReleased(young);
  ExpectReleased(old);
}

// Regression: holders evicted by lease stealing never send an unlock
// (their coordinator is dead), so eviction itself must drop their
// per-owner state.
TEST_F(LockIndexTest, LeaseStealsByDeadCoordinatorsLeaveNoRecords) {
  Build();
  const NodeId dead = 6;
  cluster_->Crash(dead);
  const rt::Time lease = node().options().lock_lease;
  constexpr int kSteals = 20;
  for (int i = 0; i <= kSteals; ++i) {
    LockOwner owner{dead, static_cast<uint64_t>(100 + i)};
    ASSERT_TRUE(Lock(owner, hosted_[1]).ok()) << "steal " << i;
    EXPECT_EQ(node().lock_record_count(), 1u);
    EXPECT_TRUE(node().LockIndexConsistent());
    cluster_->RunFor(lease + 1);
  }
  EXPECT_EQ(cluster_->metrics()
                .counter("node." + std::to_string(kNode) + ".lock_steals")
                ->value(),
            static_cast<uint64_t>(kSteals));
  // A live operation steals the last abandoned lock and finishes.
  LockOwner live{1, 10};
  ASSERT_TRUE(Lock(live, hosted_[1]).ok());
  EXPECT_EQ(node().lock_record_count(), 1u);
  ASSERT_TRUE(Unlock(live).ok());
  ExpectReleased(live);
}

// A write prepares only objects its lock round still holds; an epoch
// install takes its locks at prepare.
TEST_F(LockIndexTest, WritePrepareWithoutItsLockIsRefused) {
  Build();
  LockOwner tx{1, 10};
  Status s = Prepare(tx, UpdateAction(hosted_[3], 1));
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_EQ(node().lock_record_count(), 0u);
  EXPECT_FALSE(node().has_staged_transaction());
}

TEST_F(LockIndexTest, PropagationReleasesTransferLock) {
  Build();
  const ObjectId object = hosted_[11];
  LockOwner tx{1, 10};
  ASSERT_TRUE(Lock(tx, object).ok());
  ASSERT_TRUE(Prepare(tx, MarkStaleAction(object, 3)).ok());
  ASSERT_TRUE(Commit(tx).ok());
  ASSERT_TRUE(node().store(object).stale());

  auto offer = [&](uint64_t transfer_id) {
    auto req = std::make_shared<PropagationOffer>();
    req->object = object;
    req->source_version = 3;
    req->transfer_id = transfer_id;
    auto r = node().HandleRequest(2, msg::kPropOffer, req);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(net::As<PropagationOfferReply>(*r).verdict,
              PropagationVerdict::kPermitted);
  };

  // The source vanishes after the offer: the watchdog reclaims the lock.
  LockOwner abandoned{2, 50};
  offer(abandoned.operation_id);
  EXPECT_EQ(HeldBy(abandoned), std::set<ObjectId>{object});
  cluster_->RunFor(node().options().lock_lease + 1);
  EXPECT_FALSE(node().store(object).locked_for_propagation());
  ExpectReleased(abandoned);

  // A completed transfer releases on data arrival.
  LockOwner transfer{2, 51};
  offer(transfer.operation_id);
  auto data = std::make_shared<PropagationData>();
  data->object = object;
  data->transfer_id = transfer.operation_id;
  data->snapshot = true;
  data->snapshot_version = 3;
  data->updates = {Update::Total({3, 3, 3, 3})};
  ASSERT_TRUE(node().HandleRequest(2, msg::kPropData, data).ok());
  EXPECT_FALSE(node().store(object).stale());
  ExpectReleased(transfer);
}

TEST_F(LockIndexTest, RecoveryRelocksExactlyTheInDoubtFootprints) {
  Build();
  LockOwner single{1, 10};
  LockOwner pair{2, 20};
  LockOwner install{3, 30};
  LockOwner reader{4, 40};
  ASSERT_TRUE(Lock(single, hosted_[1]).ok());
  ASSERT_TRUE(Prepare(single, MarkStaleAction(hosted_[1], 2)).ok());
  ASSERT_TRUE(Lock(pair, hosted_[2]).ok());
  ASSERT_TRUE(Lock(pair, hosted_[3]).ok());
  StagedAction two = MarkStaleAction(hosted_[2], 2);
  two.objects.push_back(MarkStaleAction(hosted_[3], 2).objects[0]);
  ASSERT_TRUE(Prepare(pair, two).ok());
  StagedAction epoch;
  epoch.install_epoch = true;
  epoch.epoch_scope = hosted_[4];
  epoch.epoch_number = 1;
  epoch.epoch_list = cluster_->HomeNodes(hosted_[4]);
  ASSERT_TRUE(Prepare(install, epoch).ok());
  ASSERT_TRUE(Lock(reader, hosted_[5], /*exclusive=*/false).ok());
  EXPECT_EQ(node().lock_record_count(), 4u);

  cluster_->Crash(kNode);
  EXPECT_EQ(node().lock_record_count(), 0u);
  EXPECT_EQ(LockedStores(), 0u);
  cluster_->Recover(kNode);

  EXPECT_EQ(HeldBy(single), std::set<ObjectId>{hosted_[1]});
  EXPECT_EQ(HeldBy(pair), (std::set<ObjectId>{hosted_[2], hosted_[3]}));
  EXPECT_EQ(HeldBy(install), std::set<ObjectId>{hosted_[4]});
  EXPECT_TRUE(HeldBy(reader).empty());
  EXPECT_EQ(LockedStores(), 4u);
  EXPECT_EQ(node().lock_record_count(), 3u);
  EXPECT_TRUE(node().LockIndexConsistent());

  for (const LockOwner& tx : {single, pair, install}) {
    ASSERT_TRUE(Abort(tx).ok());
  }
  EXPECT_EQ(LockedStores(), 0u);
  ExpectReleased(single);
}

}  // namespace
}  // namespace dcp::protocol
