// RetryPolicy coverage: by default the *SyncRetry wrappers retry only
// lock conflicts (the historical behavior); with retry_unavailable set
// they also ride out transient quorum loss — the regression here was
// treating kUnavailable as terminal with no way to opt out, so a client
// gave up even when the missing nodes were seconds from recovery.

#include <gtest/gtest.h>

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

TEST(RetryPolicy, RetryUnavailableRidesOutRecovery) {
  ClusterOptions opts = BaseOptions(11);
  opts.retry_policy.retry_unavailable = true;
  Cluster cluster(opts);
  CrashMajorityUntil(&cluster, 150.0);

  auto w = cluster.WriteSyncRetry(0, Update::Partial(0, {1}), 50);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_GE(cluster.simulator().Now(), 150.0);
}

TEST(RetryPolicy, ReadRetryCoversBothStatuses) {
  // Read quorums take one representative per grid column, so killing the
  // whole column {0,3,6} makes reads unavailable (a plain row crash
  // would not — the survivors still cover every column).
  ClusterOptions opts = BaseOptions(23);
  opts.retry_policy.retry_unavailable = true;
  Cluster cluster(opts);
  for (NodeId v : {NodeId(0), NodeId(3), NodeId(6)}) cluster.Crash(v);
  cluster.simulator().Schedule(120.0, [&cluster] {
    for (NodeId v : {NodeId(0), NodeId(3), NodeId(6)}) cluster.Recover(v);
  });

  auto r = cluster.ReadSyncRetry(1, 0, 50);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(cluster.simulator().Now(), 120.0);

  // And the default policy still surfaces unavailability immediately.
  Cluster strict(BaseOptions(23));
  for (NodeId v : {NodeId(0), NodeId(3), NodeId(6)}) strict.Crash(v);
  auto r2 = strict.ReadSyncRetry(1, 0, 50);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsUnavailable()) << r2.status().ToString();
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

TEST(RetryPolicy, ConflictStillRetriedByDefault) {
  // ShouldRetry is the single decision point; check its table directly.
  RetryPolicy def;
  EXPECT_TRUE(def.ShouldRetry(Status::Conflict("c")));
  EXPECT_FALSE(def.ShouldRetry(Status::Unavailable("u")));
  def.retry_unavailable = true;
  EXPECT_TRUE(def.ShouldRetry(Status::Unavailable("u")));
  def.retry_conflict = false;
  EXPECT_FALSE(def.ShouldRetry(Status::Conflict("c")));
  EXPECT_FALSE(def.ShouldRetry(Status::Internal("i")));
}

}  // namespace
}  // namespace dcp::protocol
