#include <gtest/gtest.h>

#include <string>

#include "harness/fault_injector.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::harness {
namespace {

using protocol::Cluster;
using protocol::ClusterOptions;
using protocol::CoterieKind;

/// The driver's "workload.<kind>.attempted" count.
uint64_t Attempted(Cluster& cluster, const std::string& kind) {
  return cluster.metrics().CounterValue("workload." + kind + ".attempted");
}

/// Committed share of the driver's `kind` ops (0 when none was issued).
double SuccessRate(Cluster& cluster, const std::string& kind) {
  const uint64_t attempted = Attempted(cluster, kind);
  if (attempted == 0) return 0;
  return double(cluster.metrics().CounterValue("workload." + kind +
                                               ".committed")) /
         double(attempted);
}

/// Mean simulated latency of the driver's committed `kind` ops.
double MeanLatency(Cluster& cluster, const std::string& kind) {
  return cluster.metrics().histograms().at("workload." + kind + ".latency")
      ->mean();
}

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 5;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  return opts;
}

TEST(FaultInjector, InjectsFailuresAndRepairsAtConfiguredRates) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 1000;
  fopts.mttr = 250;
  fopts.seed = 3;
  FaultInjector injector(&cluster, fopts);
  cluster.RunFor(50000);
  // Expect roughly 9 * horizon / (mtbf + mttr) cycles = ~360 failures.
  EXPECT_GT(injector.failures_injected(), 200u);
  EXPECT_LT(injector.failures_injected(), 600u);
  // Repairs track failures within one in-flight cycle per node.
  EXPECT_NEAR(double(injector.repairs_injected()),
              double(injector.failures_injected()), 9.0);
  EXPECT_NEAR(injector.NodeAvailability(), 0.8, 1e-9);
}

TEST(FaultInjector, StopQuiescesInjection) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 500;
  fopts.mttr = 100;
  FaultInjector injector(&cluster, fopts);
  cluster.RunFor(5000);
  injector.Stop();
  uint64_t frozen = injector.failures_injected();
  cluster.RunFor(20000);
  EXPECT_EQ(injector.failures_injected(), frozen);
  // All nodes eventually... stay in whatever state they were; recover
  // them manually so the cluster is reusable.
  for (NodeId id = 0; id < 9; ++id) {
    if (!cluster.network().IsUp(id)) cluster.Recover(id);
  }
}

// Regression: the injector schedules its first fault events at
// construction; Stop() before any of them fire must turn the whole queued
// schedule into no-ops (the shared stop flag is checked inside each event;
// safe because the simulator is single-threaded).
TEST(FaultInjector, StopBeforePendingEventsFireMakesThemNoOps) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 100;  // Aggressive: events queued almost immediately.
  fopts.mttr = 10;
  FaultInjector injector(&cluster, fopts);
  injector.Stop();  // Nothing has run yet — the queue is full of events.
  cluster.RunFor(50000);
  EXPECT_EQ(injector.failures_injected(), 0u);
  EXPECT_EQ(injector.repairs_injected(), 0u);
  EXPECT_EQ(cluster.UpNodes().Size(), 9u);
}

TEST(FaultInjector, SafeToDestroyWithEventsQueued) {
  Cluster cluster(Options());
  {
    FaultInjector injector(&cluster, {});
    cluster.RunFor(100);
  }  // Destroyed with fault events still queued.
  cluster.RunFor(100000);  // Must not crash or mutate further.
  SUCCEED();
}

TEST(WorkloadDriver, DrivesOperationsAndRecordsStats) {
  Cluster cluster(Options());
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.05;
  wopts.write_fraction = 0.6;
  WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(20000);
  workload.Stop();
  // ~1000 operations, ~60% writes. Open-loop clients do not retry, so
  // concurrent arrivals can fail on lock conflicts even failure-free —
  // but the vast majority must succeed, and the history must serialize.
  EXPECT_GT(Attempted(cluster, "write"), 400u);
  EXPECT_GT(Attempted(cluster, "read"), 250u);
  EXPECT_GT(SuccessRate(cluster, "write"), 0.75);
  EXPECT_GT(SuccessRate(cluster, "read"), 0.85);
  EXPECT_GT(MeanLatency(cluster, "write"), 0.0);
  EXPECT_GT(MeanLatency(cluster, "write"),
            MeanLatency(cluster, "read"));  // Writes pay 2PC rounds.
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(WorkloadDriver, SurvivesChurnWithDaemons) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 5000;
  fopts.mttr = 800;
  FaultInjector faults(&cluster, fopts);
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(100000);
  workload.Stop();
  faults.Stop();
  // Churn costs some operations but most must succeed (no retries!).
  EXPECT_GT(SuccessRate(cluster, "write"), 0.7);
  EXPECT_GT(SuccessRate(cluster, "read"), 0.7);
  EXPECT_GT(faults.failures_injected(), 50u);
  EXPECT_TRUE(cluster.CheckHistory().ok())
      << cluster.CheckHistory().ToString();
}

// Regression: same contract for the workload driver — its first arrival
// event is queued at construction, and Stop() before it fires must keep
// every statistic at zero.
TEST(WorkloadDriver, StopBeforePendingEventsFireMakesThemNoOps) {
  Cluster cluster(Options());
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 1.0;  // An arrival is due almost immediately.
  WorkloadDriver workload(&cluster, wopts);
  workload.Stop();  // The first arrival event is still queued.
  cluster.RunFor(20000);
  EXPECT_EQ(Attempted(cluster, "write"), 0u);
  EXPECT_EQ(Attempted(cluster, "read"), 0u);
  EXPECT_TRUE(cluster.history().ops().empty());
}

TEST(WorkloadDriver, StaticStackWorks) {
  Cluster cluster(Options());
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.stack = Stack::kStatic;
  WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(10000);
  workload.Stop();
  EXPECT_GT(Attempted(cluster, "write"), 50u);
  // Failure-free, but open-loop arrivals may still collide on locks.
  EXPECT_GT(SuccessRate(cluster, "write"), 0.8);
}

}  // namespace
}  // namespace dcp::harness
