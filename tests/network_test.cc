#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/rpc.h"
#include "sim/simulator.h"

namespace dcp::net {
namespace {

/// Echo service: replies with the request payload; refuses type "deny".
struct EchoPayload : Payload {
  explicit EchoPayload(int v) : value(v) {}
  int value;
};

class EchoService : public RpcService {
 public:
  Result<PayloadPtr> HandleRequest(NodeId from, const std::string& type,
                                   const PayloadPtr& request) override {
    last_from = from;
    ++handled;
    if (type == "deny") return Status::Conflict("denied");
    return request;
  }
  NodeId last_from = kInvalidNode;
  int handled = 0;
};

struct Harness {
  sim::Simulator sim;
  Network network{&sim, Rng(1), LatencyModel{1.0, 0.0}};
  RpcRuntime rpc0{&network, 0};
  RpcRuntime rpc1{&network, 1};
  RpcRuntime rpc2{&network, 2};
  EchoService svc0, svc1, svc2;

  Harness() {
    rpc0.set_service(&svc0);
    rpc1.set_service(&svc1);
    rpc2.set_service(&svc2);
  }
};

TEST(Network, DeliversBetweenUpNodes) {
  Harness h;
  bool got = false;
  h.rpc0.Call(1, "echo", MakePayload<EchoPayload>(42), [&](RpcResult r) {
    ASSERT_TRUE(r.ok()) << r.transport.ToString();
    EXPECT_EQ(As<EchoPayload>(r.response).value, 42);
    got = true;
  });
  h.sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(h.svc1.last_from, 0u);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.delivered"), 2u);  // Req+reply.
}

TEST(Network, SelfCallWorks) {
  Harness h;
  bool got = false;
  h.rpc0.Call(0, "echo", MakePayload<EchoPayload>(7), [&](RpcResult r) {
    EXPECT_TRUE(r.ok());
    got = true;
  });
  h.sim.Run();
  EXPECT_TRUE(got);
}

TEST(Network, CallToDownNodeFails) {
  Harness h;
  h.network.SetNodeUp(1, false);
  bool got = false;
  h.rpc0.Call(1, "echo", MakePayload<EchoPayload>(1), [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    got = true;
  });
  h.sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(h.svc1.handled, 0);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.failed"), 1u);
}

TEST(Network, AppErrorIsNotCallFailed) {
  Harness h;
  bool got = false;
  h.rpc0.Call(1, "deny", MakePayload<EchoPayload>(1), [&](RpcResult r) {
    EXPECT_FALSE(r.call_failed());
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.app.IsConflict());
    got = true;
  });
  h.sim.Run();
  EXPECT_TRUE(got);
}

TEST(Network, PartitionBlocksCrossGroupTraffic) {
  Harness h;
  h.network.SetPartitions({NodeSet({0, 1}), NodeSet({2})});
  EXPECT_TRUE(h.network.Reachable(0, 1));
  EXPECT_FALSE(h.network.Reachable(0, 2));

  bool in_group = false, cross_group = false;
  h.rpc0.Call(1, "echo", MakePayload<EchoPayload>(1), [&](RpcResult r) {
    EXPECT_TRUE(r.ok());
    in_group = true;
  });
  h.rpc0.Call(2, "echo", MakePayload<EchoPayload>(1), [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    cross_group = true;
  });
  h.sim.Run();
  EXPECT_TRUE(in_group);
  EXPECT_TRUE(cross_group);

  h.network.HealPartitions();
  EXPECT_TRUE(h.network.Reachable(0, 2));
}

TEST(Network, CrashMidFlightDropsMessageAndNotifiesSender) {
  Harness h;
  bool got = false;
  h.rpc0.Call(1, "echo", MakePayload<EchoPayload>(5), [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    got = true;
  });
  // Crash node 1 before the message (latency 1.0) arrives.
  h.sim.Schedule(0.5, [&] { h.network.SetNodeUp(1, false); });
  h.sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(h.svc1.handled, 0);
}

TEST(Network, ResponseLossTriggersTimeout) {
  Harness h;
  bool got = false;
  h.rpc0.Call(1, "echo", MakePayload<EchoPayload>(5), [&](RpcResult r) {
    EXPECT_TRUE(r.call_failed());
    EXPECT_EQ(r.transport.code(), StatusCode::kTimedOut);
    got = true;
  });
  // Crash node 0... no — crash the *link back*: partition after delivery.
  h.sim.Schedule(1.5, [&] {
    h.network.SetPartitions({NodeSet({0}), NodeSet({1, 2})});
  });
  h.sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(h.svc1.handled, 1);  // Request arrived; reply was lost.
}

TEST(Network, AbortAllSuppressesCallbacks) {
  Harness h;
  bool fired = false;
  h.rpc0.Call(1, "echo", MakePayload<EchoPayload>(5),
              [&](RpcResult) { fired = true; });
  h.rpc0.AbortAll();
  h.sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Network, MulticastGatherCollectsMixedOutcomes) {
  Harness h;
  h.network.SetNodeUp(2, false);
  bool done = false;
  MulticastGather(&h.rpc0, NodeSet({0, 1, 2}), "echo",
                  MakePayload<EchoPayload>(3), [&](GatherResult g) {
                    EXPECT_EQ(g.replies.size(), 3u);
                    EXPECT_EQ(g.Responded(), NodeSet({0, 1}));
                    EXPECT_EQ(g.Succeeded(), NodeSet({0, 1}));
                    EXPECT_TRUE(g.replies.at(2).call_failed());
                    done = true;
                  });
  h.sim.Run();
  EXPECT_TRUE(done);
}

TEST(Network, MulticastGatherEmptyTargetsCompletes) {
  Harness h;
  bool done = false;
  MulticastGather(&h.rpc0, NodeSet{}, "echo", MakePayload<EchoPayload>(0),
                  [&](GatherResult g) {
                    EXPECT_TRUE(g.replies.empty());
                    done = true;
                  });
  h.sim.Run();
  EXPECT_TRUE(done);
}

TEST(Network, PerTypeCountersAccumulate) {
  Harness h;
  bool a = false, b = false;
  h.rpc0.Call(1, "alpha", MakePayload<EchoPayload>(0),
              [&](RpcResult) { a = true; });
  h.rpc1.Call(2, "beta", MakePayload<EchoPayload>(0),
              [&](RpcResult) { b = true; });
  h.sim.Run();
  EXPECT_TRUE(a && b);
  const obs::MetricsRegistry& m = h.sim.metrics();
  EXPECT_EQ(m.CounterValue("net.type.alpha.sent"), 1u);
  EXPECT_EQ(m.CounterValue("net.type.alpha.reply.delivered"), 1u);
  EXPECT_EQ(m.CounterValue("net.type.beta.sent"), 1u);
  // Node 1 received the "alpha" request and the "beta.reply".
  EXPECT_EQ(m.CounterValue("net.delivered_to.1"), 2u);
}

}  // namespace
}  // namespace dcp::net
