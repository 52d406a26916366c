// The *SyncRetry wrappers' one rule: a lock conflict is retried after a
// randomized backoff, and every other status is the answer.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions BaseOptions(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = {0, 0, 0, 0};
  return opts;
}

/// Crashes nodes 3..8 (leaving only row {0,1,2} of the 3x3 grid — no
/// write quorum) and schedules their recovery at `recover_at`.
void CrashMajorityUntil(Cluster* cluster, sim::Time recover_at) {
  for (NodeId v = 3; v < 9; ++v) cluster->Crash(v);
  cluster->simulator().Schedule(recover_at, [cluster] {
    for (NodeId v = 3; v < 9; ++v) cluster->Recover(v);
  });
}

TEST(RetryPolicy, UnavailableIsTerminalByDefault) {
  Cluster cluster(BaseOptions(11));
  CrashMajorityUntil(&cluster, 150.0);

  // Even with many attempts allowed, the default policy returns the
  // kUnavailable verbatim from the first attempt — well before t=150.
  auto w = cluster.WriteSyncRetry(0, Update::Partial(0, {1}), 50);
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsUnavailable()) << w.status().ToString();
  EXPECT_LT(cluster.simulator().Now(), 150.0);
}

TEST(RetryPolicy, ZeroAttemptsIsAnInvalidArgument) {
  // A caller bug, reported as such (the socket cluster's status for the
  // same input) — and nothing runs, so no message or event is spent.
  Cluster cluster(BaseOptions(11));
  for (int attempts : {0, -1}) {
    auto w = cluster.WriteSyncRetry(0, 0, Update::Partial(0, {1}), attempts);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument)
        << w.status().ToString();
    auto r = cluster.ReadSyncRetry(0, 0, attempts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  EXPECT_EQ(cluster.simulator().events_executed(), 0u);
}

TEST(RetryPolicy, ConflictIsRetriedUntilTheLockIsFree) {
  // An operation that took its locks everywhere and never finished: they
  // refuse every write until their lease lapses and they may be stolen.
  ClusterOptions opts = BaseOptions(11);
  opts.node_options.lock_lease = 100.0;
  Cluster cluster(opts);
  const LockOwner ghost{8, 999};
  for (NodeId n = 0; n < 9; ++n) {
    auto req = std::make_shared<LockRequest>();
    req->owner = ghost;
    req->mode = LockMode::kExclusive;
    ASSERT_TRUE(cluster.node(n).HandleRequest(8, msg::kLock, req).ok());
  }

  auto once = cluster.WriteSyncRetry(0, Update::Partial(0, {1}), 1);
  ASSERT_FALSE(once.ok());
  EXPECT_TRUE(once.status().IsConflict()) << once.status().ToString();

  // Each conflict backs off at least kRetryBackoffBase, so 50 attempts
  // outlast the lease.
  auto w = cluster.WriteSyncRetry(0, Update::Partial(0, {1}), 50);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_GE(cluster.simulator().Now(), opts.node_options.lock_lease);
}

}  // namespace
}  // namespace dcp::protocol
