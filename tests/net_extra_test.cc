// Additional network-layer coverage: latency model bounds, three-way
// partitions, stats lifecycle, sender-crash in-flight semantics, and
// RPC timeout configuration.

#include <gtest/gtest.h>

#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace dcp::net {
namespace {

struct Echo : Payload {
  explicit Echo(int v) : value(v) {}
  int value;
};

class EchoService : public RpcService {
 public:
  Result<PayloadPtr> HandleRequest(NodeId, const std::string&,
                                   const PayloadPtr& request) override {
    ++handled;
    return request;
  }
  int handled = 0;
};

TEST(NetworkExtra, LatencyStaysWithinModelBounds) {
  sim::Simulator sim;
  Network network(&sim, Rng(9), LatencyModel{2.0, 1.0});
  EchoService svc;
  RpcRuntime a(&network, 0), b(&network, 1);
  a.set_service(&svc);
  b.set_service(&svc);

  for (int i = 0; i < 50; ++i) {
    double sent_at = sim.Now();
    bool got = false;
    a.Call(1, "echo", MakePayload<Echo>(i), [&, sent_at](RpcResult r) {
      ASSERT_TRUE(r.ok());
      double rtt = sim.Now() - sent_at;
      EXPECT_GE(rtt, 4.0);  // Two hops, >= 2 x base.
      EXPECT_LE(rtt, 6.0);  // <= 2 x (base + jitter).
      got = true;
    });
    sim.Run();
    EXPECT_TRUE(got);
  }
}

TEST(NetworkExtra, ThreeWayPartitionIsolatesAllGroups) {
  sim::Simulator sim;
  Network network(&sim, Rng(1));
  EchoService svc;
  RpcRuntime r0(&network, 0), r1(&network, 1), r2(&network, 2);
  r0.set_service(&svc);
  r1.set_service(&svc);
  r2.set_service(&svc);

  network.SetPartitions({NodeSet({0}), NodeSet({1}), NodeSet({2})});
  EXPECT_FALSE(network.Reachable(0, 1));
  EXPECT_FALSE(network.Reachable(1, 2));
  EXPECT_FALSE(network.Reachable(0, 2));
  EXPECT_TRUE(network.Reachable(0, 0));  // Self stays reachable.

  // Re-partitioning replaces the old grouping outright.
  network.SetPartitions({NodeSet({0, 1, 2})});
  EXPECT_TRUE(network.Reachable(0, 2));
}

TEST(NetworkExtra, NodesOutsideAnyGroupFormTheirOwn) {
  sim::Simulator sim;
  Network network(&sim, Rng(1));
  EchoService svc;
  RpcRuntime r0(&network, 0), r1(&network, 1), r2(&network, 2);
  r0.set_service(&svc);
  r1.set_service(&svc);
  r2.set_service(&svc);
  // Only node 2 is named; 0 and 1 stay in the default group together.
  network.SetPartitions({NodeSet({2})});
  EXPECT_TRUE(network.Reachable(0, 1));
  EXPECT_FALSE(network.Reachable(0, 2));
}

TEST(NetworkExtra, StatsResetClearsEverything) {
  sim::Simulator sim;
  Network network(&sim, Rng(1));
  EchoService svc;
  RpcRuntime a(&network, 0), b(&network, 1);
  a.set_service(&svc);
  b.set_service(&svc);
  bool got = false;
  a.Call(1, "echo", MakePayload<Echo>(0), [&](RpcResult) { got = true; });
  sim.Run();
  ASSERT_TRUE(got);
  EXPECT_GT(sim.metrics().CounterValue("net.sent"), 0u);
  sim.metrics().ResetPrefix("net.");
  // Every "net.*" counter is zero; the names stay registered.
  size_t net_counters = 0;
  for (const auto& [name, counter] : sim.metrics().counters()) {
    if (name.rfind("net.", 0) != 0) continue;
    ++net_counters;
    EXPECT_EQ(counter->value(), 0u) << name;
  }
  EXPECT_GT(net_counters, 6u);  // Totals plus per-type and per-node.
}

TEST(NetworkExtra, SenderCrashDoesNotRecallInFlightMessages) {
  sim::Simulator sim;
  Network network(&sim, Rng(1), LatencyModel{1.0, 0.0});
  EchoService svc_a, svc_b;
  RpcRuntime a(&network, 0), b(&network, 1);
  a.set_service(&svc_a);
  b.set_service(&svc_b);

  a.Call(1, "echo", MakePayload<Echo>(7), [](RpcResult) {});
  // Crash the sender while the request is on the wire: fail-stop means
  // it cannot RECALL the packet; node 1 still processes it.
  sim.Schedule(0.5, [&] { network.SetNodeUp(0, false); });
  sim.Run();
  EXPECT_EQ(svc_b.handled, 1);
}

TEST(NetworkExtra, CrashedNodeCannotSend) {
  sim::Simulator sim;
  Network network(&sim, Rng(1));
  EchoService svc;
  RpcRuntime a(&network, 0), b(&network, 1);
  a.set_service(&svc);
  b.set_service(&svc);
  network.SetNodeUp(0, false);
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.type = "echo";
  msg.payload = MakePayload<Echo>(1);
  network.Send(std::move(msg));
  sim.Run();
  EXPECT_EQ(svc.handled, 0);
  EXPECT_EQ(sim.metrics().CounterValue("net.sent"), 0u);
}

TEST(NetworkExtra, ShortRpcTimeoutFiresBeforeSlowReply) {
  sim::Simulator sim;
  // Slow net: one hop takes longer than the RPC timeout.
  Network network(&sim, Rng(1), LatencyModel{2 * kRpcTimeout, 0.0});
  EchoService svc;
  RpcRuntime fast(&network, 0);
  RpcRuntime peer(&network, 1);
  fast.set_service(&svc);
  peer.set_service(&svc);

  bool got = false;
  fast.Call(1, "echo", MakePayload<Echo>(1), [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    EXPECT_EQ(r.transport.code(), StatusCode::kTimedOut);
    got = true;
  });
  sim.Run();
  EXPECT_TRUE(got);
  // The reply still arrived later and was dropped as stale (no crash).
  EXPECT_EQ(svc.handled, 1);
}

}  // namespace
}  // namespace dcp::net
