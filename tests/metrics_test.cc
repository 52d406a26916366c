// Observability metrics: counter/gauge/histogram semantics, percentile
// estimation, registry lifecycle (reset, prefix reset, JSON export), and
// the property the whole layer exists to uphold — identically seeded
// cluster runs produce byte-identical metrics snapshots.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/workload.h"
#include "obs/json.h"
#include "protocol/cluster.h"

namespace dcp::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Add(-6.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketPlacement) {
  // Bounds are inclusive upper edges; one implicit +inf bucket.
  Histogram h({10.0, 20.0, 30.0});
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  h.Observe(5.0);    // <= 10
  h.Observe(10.0);   // <= 10 (edge lands in its bound's bucket)
  h.Observe(10.5);   // <= 20
  h.Observe(30.0);   // <= 30
  h.Observe(99.0);   // +inf
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 + 10.0 + 10.5 + 30.0 + 99.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(Histogram, PercentileNearestRank) {
  // 100 samples, one per bucket slot: sample i+1 goes in bucket i of
  // bounds {1..100}, so percentile p should land on sample ~p.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(double(i));
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.Observe(double(i));
  EXPECT_NEAR(h.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(95), 95.0, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.0);
  // Out-of-range p clamps; estimates clamp to observed min/max.
  EXPECT_GE(h.Percentile(-5), 1.0);
  EXPECT_LE(h.Percentile(500), 100.0);
}

TEST(Histogram, PercentileClampedToObservedRange) {
  // All samples share one coarse bucket: interpolation must not wander
  // outside [min, max].
  Histogram h({1000.0});
  h.Observe(3.0);
  h.Observe(4.0);
  h.Observe(5.0);
  EXPECT_GE(h.Percentile(1), 3.0);
  EXPECT_LE(h.Percentile(99), 5.0);
}

TEST(Histogram, DefaultLatencyBounds) {
  std::vector<double> bounds = Histogram::DefaultLatencyBounds();
  ASSERT_EQ(bounds.size(), 13u);  // 1, 2, 4, ..., 4096.
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 4096.0);
}

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x.count");
  Counter* b = reg.counter("x.count");
  EXPECT_EQ(a, b);  // Same name, same handle — shared aggregation.
  a->Increment();
  EXPECT_EQ(b->value(), 1u);
  Histogram* h = reg.histogram("x.lat", {1.0, 2.0});
  EXPECT_EQ(reg.histogram("x.lat", {9.0}), h);  // Bounds ignored on re-reg.
  EXPECT_EQ(h->bounds().size(), 2u);
}

TEST(MetricsRegistry, ResetPreservesRegistration) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a.b");
  c->Increment(7);
  reg.gauge("a.g")->Set(3);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);  // Handle survives reset.
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("a.g")->value(), 0.0);
}

TEST(MetricsRegistry, CounterValueReadsWithoutRegistering) {
  MetricsRegistry reg;
  reg.counter("net.sent")->Increment(4);
  const std::string before = reg.ToJson();
  const MetricsRegistry& view = reg;
  EXPECT_EQ(view.CounterValue("net.sent"), 4u);
  EXPECT_EQ(view.CounterValue("net.type.prop-offer.sent"), 0u);  // Absent.
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.ToJson(), before);
}

TEST(MetricsRegistry, ResetPrefixIsScoped) {
  MetricsRegistry reg;
  reg.counter("net.sent")->Increment(5);
  reg.counter("net.dropped")->Increment(2);
  reg.counter("op.write.started")->Increment(9);
  reg.histogram("net.lat")->Observe(1.0);
  reg.ResetPrefix("net.");
  EXPECT_EQ(reg.counter("net.sent")->value(), 0u);
  EXPECT_EQ(reg.counter("net.dropped")->value(), 0u);
  EXPECT_EQ(reg.histogram("net.lat")->count(), 0u);
  EXPECT_EQ(reg.counter("op.write.started")->value(), 9u);
}

TEST(MetricsRegistry, ToJsonParsesBack) {
  MetricsRegistry reg;
  reg.counter("c.one")->Increment(3);
  reg.gauge("g.one")->Set(1.5);
  Histogram* h = reg.histogram("h.one", {10.0, 20.0});
  h->Observe(4.0);
  h->Observe(15.0);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(reg.ToJson(), &doc));
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->NumberOr("c.one", -1), 3.0);
  const JsonValue* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->NumberOr("g.one", -1), 1.5);
  const JsonValue* hist = doc.Find("histograms")->Find("h.one");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->NumberOr("count", -1), 2.0);
  EXPECT_DOUBLE_EQ(hist->NumberOr("sum", -1), 19.0);
  const JsonValue* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items.size(), 3u);  // Two bounds + inf.
}

// --- bounded label cardinality ---------------------------------------------

TEST(MetricsRegistry, LabeledCounterCapsFamilyCardinality) {
  MetricsRegistry reg;
  // First `max_labels` distinct labels get their own counter...
  for (int i = 0; i < 4; ++i) {
    reg.labeled_counter("shard.checks", std::to_string(i), 4)->Increment();
  }
  // ...every later label folds into the family's overflow bucket.
  for (int i = 4; i < 100; ++i) {
    reg.labeled_counter("shard.checks", std::to_string(i), 4)->Increment();
  }
  EXPECT_EQ(reg.counters().size(), 5u);  // 4 labels + overflow.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reg.counter("shard.checks." + std::to_string(i))->value(), 1u);
  }
  EXPECT_EQ(reg.counter("shard.checks.overflow")->value(), 96u);
}

TEST(MetricsRegistry, LabeledCounterExistingLabelsSurviveTheCap) {
  MetricsRegistry reg;
  Counter* a = reg.labeled_counter("f", "a", 1);
  // The family is at its cap, but a's handle stays addressable — only
  // first-sight labels are folded.
  EXPECT_EQ(reg.labeled_counter("f", "a", 1), a);
  Counter* b = reg.labeled_counter("f", "b", 1);
  EXPECT_EQ(b, reg.counter("f.overflow"));
  EXPECT_NE(a, b);
}

TEST(MetricsRegistry, LabeledCounterFamiliesAreIndependent) {
  MetricsRegistry reg;
  reg.labeled_counter("x", "1", 2)->Increment();
  reg.labeled_counter("x", "2", 2)->Increment();
  // Family y has its own budget even though x is full.
  Counter* y = reg.labeled_counter("y", "1", 2);
  EXPECT_EQ(y, reg.counter("y.1"));
  EXPECT_EQ(reg.labeled_counter("x", "3", 2), reg.counter("x.overflow"));
}

// --- whole-stack determinism ------------------------------------------------

std::string MetricsSnapshotForSeed(uint64_t seed) {
  protocol::ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = protocol::CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  protocol::Cluster cluster(opts);

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(20000);
  workload.Stop();
  return cluster.metrics().ToJson();
}

TEST(MetricsDeterminism, IdenticalSeedsIdenticalSnapshots) {
  std::string a = MetricsSnapshotForSeed(77);
  std::string b = MetricsSnapshotForSeed(77);
  EXPECT_EQ(a, b);  // Byte-identical, histograms and all.
  EXPECT_NE(a.find("\"op.write.committed\""), std::string::npos);
  EXPECT_NE(a.find("\"rpc.latency\""), std::string::npos);
}

TEST(MetricsDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(MetricsSnapshotForSeed(77), MetricsSnapshotForSeed(78));
}

}  // namespace
}  // namespace dcp::obs
