// Unit tests for the message-level FaultModel: drop probability honored
// statistically under a fixed seed, duplicated messages delivered exactly
// twice, reordering visible as overtaking, asymmetric one-way cuts, per-link
// latency overrides — and, crucially, that RPC.CallFailed semantics survive
// (on_failed still fires for dropped requests) and that a zeroed model is
// behaviorally identical to no model at all.

#include "net/network.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/rpc.h"
#include "sim/simulator.h"

namespace dcp::net {
namespace {

/// Records every delivered message (type + arrival time), in order.
struct RecordingSink : MessageSink {
  void Deliver(Message msg) override {
    arrivals.push_back({msg.type, owner->Now()});
  }
  sim::Simulator* owner = nullptr;
  std::vector<std::pair<std::string, sim::Time>> arrivals;
};

struct Harness {
  explicit Harness(uint64_t seed = 7, LatencyModel latency = {1.0, 0.0})
      : network(&sim, Rng(seed), latency) {
    for (NodeId n = 0; n < 3; ++n) {
      sinks[n].owner = &sim;
      network.Register(n, &sinks[n]);
    }
  }

  Message Msg(NodeId src, NodeId dst, std::string type = "m") {
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = std::move(type);
    return m;
  }

  sim::Simulator sim;
  Network network;
  RecordingSink sinks[3];
};

TEST(NetworkFault, DropProbabilityHonoredStatistically) {
  Harness h;
  LinkFaults f;
  f.drop = 0.3;
  h.network.SetLinkFaults(0, 1, f);
  const int kSends = 4000;
  for (int i = 0; i < kSends; ++i) h.network.Send(h.Msg(0, 1));
  h.sim.Run();

  const obs::MetricsRegistry& m = h.sim.metrics();
  const uint64_t dropped = m.CounterValue("net.dropped");
  const uint64_t delivered = m.CounterValue("net.delivered");
  EXPECT_EQ(m.CounterValue("net.sent"), uint64_t(kSends));
  EXPECT_EQ(dropped + delivered, uint64_t(kSends));
  // 30% +- 4 sigma (sigma ~= sqrt(N*p*(1-p)) ~= 29).
  EXPECT_NEAR(double(dropped), 0.3 * kSends, 120.0);
  EXPECT_EQ(m.CounterValue("net.type.m.dropped"), dropped);
  EXPECT_EQ(h.sinks[1].arrivals.size(), delivered);
}

TEST(NetworkFault, DuplicatedMessagesDeliveredExactlyTwice) {
  Harness h;
  LinkFaults f;
  f.duplicate = 1.0;
  h.network.SetLinkFaults(0, 1, f);
  const int kSends = 50;
  for (int i = 0; i < kSends; ++i) h.network.Send(h.Msg(0, 1));
  h.sim.Run();

  const obs::MetricsRegistry& m = h.sim.metrics();
  EXPECT_EQ(m.CounterValue("net.sent"), uint64_t(kSends));
  EXPECT_EQ(m.CounterValue("net.duplicated"), uint64_t(kSends));
  EXPECT_EQ(m.CounterValue("net.delivered"), uint64_t(2 * kSends));
  EXPECT_EQ(h.sinks[1].arrivals.size(), size_t(2 * kSends));
  EXPECT_EQ(m.CounterValue("net.type.m.duplicated"), uint64_t(kSends));
}

TEST(NetworkFault, ReorderingLetsLaterSendsOvertake) {
  Harness h(/*seed=*/11);
  LinkFaults f;
  f.reorder = 0.5;
  f.reorder_spike = 100.0;  // Far beyond the base latency of 1.0.
  h.network.SetLinkFaults(0, 1, f);
  const int kSends = 40;
  for (int i = 0; i < kSends; ++i) {
    h.network.Send(h.Msg(0, 1, "m" + std::to_string(i)));
  }
  h.sim.Run();

  ASSERT_EQ(h.sinks[1].arrivals.size(), size_t(kSends));
  EXPECT_GT(h.sim.metrics().CounterValue("net.reordered"), 0u);
  // With half the messages spiked by up to 100 time units, arrival order
  // must differ from send order.
  std::vector<std::string> order;
  for (const auto& [type, at] : h.sinks[1].arrivals) order.push_back(type);
  std::vector<std::string> sent;
  for (int i = 0; i < kSends; ++i) sent.push_back("m" + std::to_string(i));
  EXPECT_NE(order, sent);
}

TEST(NetworkFault, AsymmetricCutIsOneWay) {
  Harness h;
  h.network.CutLink(0, 1);
  EXPECT_FALSE(h.network.Reachable(0, 1));
  EXPECT_TRUE(h.network.Reachable(1, 0));
  EXPECT_NE(h.network.Reachable(0, 1), h.network.Reachable(1, 0));

  bool failed_0_to_1 = false;
  h.network.Send(h.Msg(0, 1), [&] { failed_0_to_1 = true; });
  h.network.Send(h.Msg(1, 0));
  h.sim.Run();
  EXPECT_TRUE(failed_0_to_1);
  EXPECT_TRUE(h.sinks[1].arrivals.empty());
  EXPECT_EQ(h.sinks[0].arrivals.size(), 1u);

  h.network.RestoreLink(0, 1);
  EXPECT_TRUE(h.network.Reachable(0, 1));
}

TEST(NetworkFault, OnFailedFiresForDroppedRequests) {
  Harness h;
  LinkFaults f;
  f.drop = 1.0;
  h.network.SetGlobalFaults(f);

  bool on_failed_fired = false;
  h.network.Send(h.Msg(0, 1), [&] { on_failed_fired = true; });
  h.sim.Run();
  EXPECT_TRUE(on_failed_fired);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.dropped"), 1u);
  // The loss is a *fault-model* drop, not a reachability failure.
  EXPECT_EQ(h.sim.metrics().CounterValue("net.failed"), 0u);
}

TEST(NetworkFault, DroppedRequestSurfacesAsCallFailedNotTimeout) {
  sim::Simulator sim;
  Network network(&sim, Rng(3), LatencyModel{1.0, 0.0});
  RpcRuntime rpc0(&network, 0);
  RpcRuntime rpc1(&network, 1);
  struct NullService : RpcService {
    Result<PayloadPtr> HandleRequest(NodeId, const std::string&,
                                     const PayloadPtr& req) override {
      return req;
    }
  } svc;
  rpc0.set_service(&svc);
  rpc1.set_service(&svc);

  LinkFaults f;
  f.drop = 1.0;
  network.SetLinkFaults(0, 1, f);

  bool got = false;
  rpc0.Call(1, "echo", nullptr, [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    EXPECT_EQ(r.transport.code(), StatusCode::kCallFailed);
    got = true;
  });
  sim.Run();
  EXPECT_TRUE(got);
  // The caller learned at would-be delivery time (t=1), not at the
  // timeout (t=kRpcTimeout=100).
  EXPECT_LT(sim.Now(), 10.0);
}

TEST(NetworkFault, DroppedResponseSurfacesAsTimeout) {
  sim::Simulator sim;
  Network network(&sim, Rng(3), LatencyModel{1.0, 0.0});
  RpcRuntime rpc0(&network, 0);
  RpcRuntime rpc1(&network, 1);
  struct NullService : RpcService {
    Result<PayloadPtr> HandleRequest(NodeId, const std::string&,
                                     const PayloadPtr& req) override {
      return req;
    }
  } svc;
  rpc0.set_service(&svc);
  rpc1.set_service(&svc);

  LinkFaults f;
  f.drop = 1.0;
  network.SetLinkFaults(1, 0, f);  // Replies 1 -> 0 all lost.

  bool got = false;
  rpc0.Call(1, "echo", nullptr, [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    EXPECT_EQ(r.transport.code(), StatusCode::kTimedOut);
    got = true;
  });
  sim.Run();
  EXPECT_TRUE(got);
}

TEST(NetworkFault, PerLinkLatencyOverride) {
  Harness h;
  LinkFaults f;
  f.latency = LatencyModel{50.0, 0.0};
  h.network.SetLinkFaults(0, 1, f);
  h.network.Send(h.Msg(0, 1));
  h.network.Send(h.Msg(0, 2));
  h.sim.Run();
  ASSERT_EQ(h.sinks[1].arrivals.size(), 1u);
  ASSERT_EQ(h.sinks[2].arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(h.sinks[1].arrivals[0].second, 50.0);  // Overridden.
  EXPECT_DOUBLE_EQ(h.sinks[2].arrivals[0].second, 1.0);   // Default.
}

TEST(NetworkFault, ZeroedModelIsIdenticalToNoModel) {
  auto run = [](bool install_zeroed_model) {
    Harness h(/*seed=*/99, LatencyModel{1.0, 0.5});
    if (install_zeroed_model) h.network.set_fault_model(FaultModel{});
    for (int i = 0; i < 200; ++i) {
      h.network.Send(h.Msg(i % 3, (i + 1) % 3, "t" + std::to_string(i % 5)));
    }
    h.sim.Run();
    EXPECT_EQ(h.sim.metrics().CounterValue("net.dropped"), 0u);
    EXPECT_EQ(h.sim.metrics().CounterValue("net.duplicated"), 0u);
    // The whole registry snapshot: every "net.*" counter and event count.
    return std::make_pair(h.sim.metrics().ToJson(), h.sinks[0].arrivals);
  };
  auto [metrics_plain, arrivals_plain] = run(false);
  auto [metrics_zeroed, arrivals_zeroed] = run(true);
  EXPECT_EQ(metrics_plain, metrics_zeroed);
  EXPECT_EQ(arrivals_plain, arrivals_zeroed);  // Same delivery times too.
}

TEST(NetworkFault, ClearFaultsLiftsEverything) {
  Harness h;
  LinkFaults f;
  f.drop = 1.0;
  h.network.SetGlobalFaults(f);
  h.network.CutLink(1, 2);
  h.network.ClearFaults();
  EXPECT_TRUE(h.network.fault_model().trivial());
  EXPECT_TRUE(h.network.Reachable(1, 2));
  h.network.Send(h.Msg(0, 1));
  h.sim.Run();
  EXPECT_EQ(h.sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.dropped"), 0u);
}

TEST(NetworkFault, DuplicateOfFailedMessageCountsFailuresOnce) {
  Harness h;
  LinkFaults f;
  f.duplicate = 1.0;
  h.network.SetLinkFaults(0, 1, f);
  h.network.SetNodeUp(1, false);
  int failures = 0;
  h.network.Send(h.Msg(0, 1), [&] { ++failures; });
  h.sim.Run();
  // Both copies are undeliverable, but only the original carries
  // on_failed — CallFailed must not fire twice per logical send.
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.failed"), 2u);
}

}  // namespace
}  // namespace dcp::net
