// Event tracer: Chrome trace_event round-trips, span nesting against the
// real protocol stack (a traced write must show its 2PC phases in order),
// and the acceptance property for the observability layer — two
// identically seeded nemesis runs emit byte-identical traces.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/nemesis.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::obs {
namespace {

TEST(EventTracer, DisabledRecordsNothing) {
  EventTracer tracer;
  tracer.BeginSpan("cat", "name", 1, 42);
  tracer.Instant("cat", "tick", 1);
  tracer.EndSpan("cat", "name", 1, 42);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(EventTracer, RecordsWithInjectedClock) {
  EventTracer tracer;
  double now = 0;
  tracer.set_clock([&now] { return now; });
  tracer.set_enabled(true);
  now = 1.5;
  tracer.BeginSpan("op", "write", 3, 7, {{"object", "0"}});
  now = 9.25;
  tracer.EndSpan("op", "write", 3, 7, {{"outcome", "ok"}});
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_DOUBLE_EQ(tracer.events()[0].ts, 1.5);
  EXPECT_EQ(tracer.events()[0].phase, 'b');
  EXPECT_EQ(tracer.events()[0].pid, 3u);
  EXPECT_EQ(tracer.events()[0].id, 7u);
  EXPECT_DOUBLE_EQ(tracer.events()[1].ts, 9.25);
  EXPECT_EQ(tracer.events()[1].phase, 'e');
}

TEST(EventTracer, ChromeTraceJsonRoundTrips) {
  EventTracer tracer;
  double now = 0;
  tracer.set_clock([&now] { return now; });
  tracer.set_enabled(true);
  // Exercise 64-bit ids, escaping, args, and all three phases.
  tracer.BeginSpan("rpc", "lock", 2, (uint64_t(5) << 40) | 123,
                   {{"dst", "4"}});
  now = 3.125;
  tracer.Instant("net", "net.drop", 0, {{"type", "2pc-prepare"}});
  now = 8.0;
  tracer.EndSpan("rpc", "lock", 2, (uint64_t(5) << 40) | 123,
                 {{"outcome", "ok"}, {"note", "a\"b\\c"}});

  std::string json = tracer.ToChromeTraceJson();
  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(EventTracer::FromChromeTraceJson(json, &parsed));
  EXPECT_EQ(parsed, tracer.events());

  // JSONL carries the same records, one per line.
  std::string jsonl = tracer.ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
}

TEST(EventTracer, RejectsMalformedJson) {
  std::vector<TraceEvent> parsed;
  EXPECT_FALSE(EventTracer::FromChromeTraceJson("not json", &parsed));
  EXPECT_FALSE(EventTracer::FromChromeTraceJson("{\"x\":1}", &parsed));
  EXPECT_FALSE(
      EventTracer::FromChromeTraceJson("{\"traceEvents\":[1]}", &parsed));
}

// --- protocol integration ---------------------------------------------------

// Index of the first event matching (cat, name, phase), or -1.
int FindEvent(const std::vector<TraceEvent>& events, std::string_view cat,
              std::string_view name, char phase) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].cat == cat && events[i].name == name &&
        events[i].phase == phase) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(TraceIntegration, WriteSpanNestsTwoPhaseCommit) {
  protocol::ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = protocol::CoterieKind::kGrid;
  opts.seed = 5;
  opts.initial_value = std::vector<uint8_t>(16, 0);
  opts.enable_tracing = true;
  protocol::Cluster cluster(opts);

  bool fired = false;
  cluster.Write(0, protocol::Update::Partial(0, {1}),
                [&fired](Result<protocol::WriteOutcome> r) {
                  fired = true;
                  EXPECT_TRUE(r.ok());
                });
  while (!fired && cluster.simulator().Step()) {
  }
  ASSERT_TRUE(fired);

  const std::vector<TraceEvent>& ev = cluster.tracer().events();
  int op_b = FindEvent(ev, "op", "write", 'b');
  int prep_b = FindEvent(ev, "2pc", "2pc.prepare", 'b');
  int prep_e = FindEvent(ev, "2pc", "2pc.prepare", 'e');
  int decide = FindEvent(ev, "2pc", "2pc.decide", 'i');
  int commit_b = FindEvent(ev, "2pc", "2pc.commit", 'b');
  int commit_e = FindEvent(ev, "2pc", "2pc.commit", 'e');
  int op_e = FindEvent(ev, "op", "write", 'e');

  // The operation span must bracket the whole 2PC, and the phases must
  // come in protocol order: prepare, decision, commit.
  ASSERT_NE(op_b, -1);
  ASSERT_NE(prep_b, -1);
  ASSERT_NE(op_e, -1);
  EXPECT_LT(op_b, prep_b);
  EXPECT_LT(prep_b, prep_e);
  EXPECT_LT(prep_e, decide);
  EXPECT_LT(decide, commit_b);
  EXPECT_LT(commit_b, commit_e);
  EXPECT_LT(commit_e, op_e);

  // RPC spans from the lock round precede the prepare phase.
  int lock_b = FindEvent(ev, "rpc", "lock", 'b');
  ASSERT_NE(lock_b, -1);
  EXPECT_LT(op_b, lock_b);
  EXPECT_LT(lock_b, prep_b);
}

// Trace fingerprint of a nemesis run with tracing enabled. When `json`
// is given, it receives the full serialized Chrome trace document.
std::vector<TraceEvent> TracedNemesisRun(uint64_t seed,
                                         std::string* json = nullptr) {
  protocol::ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = protocol::CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.enable_tracing = true;
  protocol::Cluster cluster(opts);

  harness::Scenario scenario = harness::RandomScenario(seed + 17, 9, 8000);
  harness::Nemesis nemesis(&cluster, scenario);

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(8000);
  workload.Stop();
  nemesis.Stop();
  if (json != nullptr) *json = cluster.tracer().ToChromeTraceJson();
  return cluster.tracer().events();
}

std::vector<TraceEvent> FilterCats(const std::vector<TraceEvent>& events,
                                   const std::vector<std::string>& cats) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (std::find(cats.begin(), cats.end(), e.cat) != cats.end()) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(TraceIntegration, NemesisChromeTraceJsonIsByteIdentical) {
  // Stronger than event-vector equality: the *serialized document* —
  // every float format decision, every argument order — must come out
  // byte-for-byte identical for the same seed. This is the contract the
  // event-queue's lazy cancellation must preserve: tombstone pops may
  // never perturb execution order or counters.
  std::string a, b;
  TracedNemesisRun(4242, &a);
  TracedNemesisRun(4242, &b);
  ASSERT_GT(a.size(), 100000u);  // The run must produce a real trace.
  // On mismatch, report sizes rather than dumping two multi-MB strings.
  EXPECT_TRUE(a == b) << "same-seed trace documents differ: " << a.size()
                      << " vs " << b.size() << " bytes";
}

TEST(TraceIntegration, NemesisTraceIsDeterministicAndValid) {
  std::vector<TraceEvent> a = TracedNemesisRun(909);
  std::vector<TraceEvent> b = TracedNemesisRun(909);
  // Full traces — and in particular the RPC/2PC/epoch spans — must be
  // identical across identically seeded runs.
  EXPECT_EQ(a, b);
  EXPECT_EQ(FilterCats(a, {"rpc", "2pc", "epoch"}),
            FilterCats(b, {"rpc", "2pc", "epoch"}));
  EXPECT_FALSE(FilterCats(a, {"rpc"}).empty());
  EXPECT_FALSE(FilterCats(a, {"2pc"}).empty());
  EXPECT_FALSE(FilterCats(a, {"epoch"}).empty());

  // And the exported document must round-trip as valid Chrome trace JSON.
  // EventTracer has no bulk-load API, so serialize run A by replay.
  EventTracer tracer;
  tracer.set_enabled(true);
  std::vector<TraceEvent> parsed;
  for (const TraceEvent& e : a) {
    double ts = e.ts;
    tracer.set_clock([ts] { return ts; });
    if (e.phase == 'b') {
      tracer.BeginSpan(e.cat, e.name, e.pid, e.id, e.args);
    } else if (e.phase == 'e') {
      tracer.EndSpan(e.cat, e.name, e.pid, e.id, e.args);
    } else {
      tracer.Instant(e.cat, e.name, e.pid, e.args);
    }
  }
  ASSERT_TRUE(
      EventTracer::FromChromeTraceJson(tracer.ToChromeTraceJson(), &parsed));
  EXPECT_EQ(parsed, tracer.events());
}

}  // namespace
}  // namespace dcp::obs
