// Regression tests for duplicate-request suppression in RpcRuntime.
//
// The network fault model can deliver one request twice. Handlers are
// not idempotent — a lock.acquire that was already granted to the same
// caller answers Conflict on re-execution — so before the reply cache
// landed, a duplicated request could both double-apply handler side
// effects and make the caller of a *successful* operation observe a
// spurious failure (when the first reply was lost and the second,
// re-executed one carried the error). The dedup cache resends the
// remembered reply instead.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace dcp::net {
namespace {

/// Deliberately non-idempotent: the first acquire succeeds, every later
/// one (including a re-executed duplicate of the SAME request) conflicts.
class LockService : public RpcService {
 public:
  Result<PayloadPtr> HandleRequest(NodeId, const std::string&,
                                   const PayloadPtr&) override {
    ++handled;
    if (held) return Status::Conflict("lock already held");
    held = true;
    return PayloadPtr{};
  }
  int handled = 0;
  bool held = false;
};

/// Counts invocations, always succeeds.
class CountingService : public RpcService {
 public:
  Result<PayloadPtr> HandleRequest(NodeId, const std::string&,
                                   const PayloadPtr&) override {
    ++handled;
    return PayloadPtr{};
  }
  int handled = 0;
};

/// Defers every reply until the test releases it, as a durable node
/// holds a prepare's ack until its log record is synced.
class DeferringService : public RpcService {
 public:
  Result<PayloadPtr> HandleRequest(NodeId, const std::string&,
                                   const PayloadPtr&) override {
    return PayloadPtr{};
  }
  void HandleRequestAsync(NodeId, const std::string&, const PayloadPtr&,
                          Responder respond) override {
    ++handled;
    pending.push_back(std::move(respond));
  }
  void ReleaseAll() {
    for (Responder& respond : pending) respond(PayloadPtr{});
    pending.clear();
  }
  int handled = 0;
  std::vector<Responder> pending;
};

Message DupRequest(uint64_t rpc_id, TypeName type) {
  Message dup;
  dup.src = 0;
  dup.dst = 1;
  dup.rpc_id = rpc_id;
  dup.kind = Message::Kind::kRequest;
  dup.type = type;
  return dup;
}

TEST(RpcDedup, DuplicateRequestDoesNotReexecuteHandler) {
  sim::Simulator sim;
  // Zero jitter: every hop takes exactly 1.0, so the schedule below is
  // exact. Timeline: request arrives t=1 (handler grants the lock), its
  // reply reaches the caller side at t=2 but the 1->0 link is cut, so it
  // is lost. The duplicate (injected at t=0.5) arrives t=1.5; its reply
  // arrives t=2.5, after the link heals at t=2.2, and is delivered.
  Network network(&sim, Rng(7), LatencyModel{1.0, 0.0});
  LockService svc;
  RpcRuntime caller(&network, 0);
  RpcRuntime server(&network, 1);
  server.set_service(&svc);
  network.CutLink(1, 0);

  bool done = false;
  RpcResult result;
  caller.Call(1, "lock.acquire", nullptr, [&](RpcResult r) {
    done = true;
    result = std::move(r);
  });
  sim.Schedule(0.5, [&] { network.Send(DupRequest(1, "lock.acquire")); });
  sim.Schedule(2.2, [&] { network.RestoreLink(1, 0); });
  sim.RunUntil(50.0);

  ASSERT_TRUE(done);
  // Without dedup the duplicate re-executes the handler (handled == 2)
  // and the caller of a granted lock sees the re-execution's Conflict.
  EXPECT_EQ(svc.handled, 1);
  EXPECT_TRUE(result.ok()) << result.app.ToString();
  EXPECT_EQ(sim.metrics().counter("rpc.dup_requests")->value(), 1u);
}

TEST(RpcDedup, DuplicateOfADeferredRequestIsDropped) {
  sim::Simulator sim;
  // Every hop takes exactly 1.0. The request arrives at t=1 and its
  // handler defers the reply; the duplicate (injected at t=0.5) arrives
  // at t=1.5, while that reply is still pending; the reply is released
  // at t=2 and reaches the caller at t=3.
  Network network(&sim, Rng(7), LatencyModel{1.0, 0.0});
  DeferringService svc;
  RpcRuntime caller(&network, 0);
  RpcRuntime server(&network, 1);
  server.set_service(&svc);

  bool done = false;
  RpcResult result;
  caller.Call(1, "prepare", nullptr, [&](RpcResult r) {
    done = true;
    result = std::move(r);
  });
  sim.Schedule(0.5, [&] { network.Send(DupRequest(1, "prepare")); });
  sim.Schedule(2.0, [&] { svc.ReleaseAll(); });
  sim.RunUntil(50.0);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.app.ToString();
  // Without an in-flight record the duplicate runs the handler again
  // (handled == 2): a durable node would stage a prepare twice.
  EXPECT_EQ(svc.handled, 1);
  obs::Counter* dups = sim.metrics().counter("rpc.dup_requests");
  EXPECT_EQ(dups->value(), 1u);

  // Once the reply is sent, a later duplicate is answered from the cache.
  network.Send(DupRequest(1, "prepare"));
  sim.RunUntil(60.0);
  EXPECT_EQ(svc.handled, 1);
  EXPECT_TRUE(svc.pending.empty());
  EXPECT_EQ(dups->value(), 2u);
}

TEST(RpcDedup, CrashClearsReplyCache) {
  sim::Simulator sim;
  Network network(&sim, Rng(7), LatencyModel{1.0, 0.0});
  CountingService svc;
  RpcRuntime caller(&network, 0);
  RpcRuntime server(&network, 1);
  server.set_service(&svc);

  bool done = false;
  caller.Call(1, "op", nullptr, [&](RpcResult) { done = true; });
  sim.RunUntil(10.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(svc.handled, 1);

  // A crashed-and-recovered node has genuinely forgotten its replies:
  // the duplicate must be treated as a fresh request.
  server.AbortAll();
  network.Send(DupRequest(1, "op"));
  sim.RunUntil(20.0);
  EXPECT_EQ(svc.handled, 2);
  EXPECT_EQ(sim.metrics().counter("rpc.dup_requests")->value(), 0u);
}

TEST(RpcDedup, ReplyCacheIsBoundedFifo) {
  sim::Simulator sim;
  Network network(&sim, Rng(7), LatencyModel{1.0, 0.0});
  CountingService svc;
  RpcRuntime caller(&network, 0);
  RpcRuntime server(&network, 1);
  server.set_service(&svc);

  // More distinct requests than the cache holds (capacity 1024).
  constexpr int kCalls = 1100;
  int completed = 0;
  for (int i = 0; i < kCalls; ++i) {
    caller.Call(1, "op", nullptr, [&](RpcResult) { ++completed; });
    sim.Run();
  }
  ASSERT_EQ(completed, kCalls);
  ASSERT_EQ(svc.handled, kCalls);

  // The oldest entry was evicted: its duplicate re-executes.
  network.Send(DupRequest(1, "op"));
  sim.Run();
  EXPECT_EQ(svc.handled, kCalls + 1);
  // The newest entry is still cached: its duplicate is suppressed.
  network.Send(DupRequest(kCalls, "op"));
  sim.Run();
  EXPECT_EQ(svc.handled, kCalls + 1);
  EXPECT_EQ(sim.metrics().counter("rpc.dup_requests")->value(), 1u);
}

}  // namespace
}  // namespace dcp::net
