#ifndef DCP_NET_RPC_H_
#define DCP_NET_RPC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "net/message.h"
#include "runtime/transport.h"
#include "util/flat_map.h"
#include "util/node_set.h"
#include "util/result.h"
#include "util/status.h"

namespace dcp::net {

/// Outcome of one RPC as observed by the caller.
///
/// `transport` distinguishes the paper's RPC.CallFailed (destination down,
/// partitioned away, or response lost past the timeout) from an answer that
/// arrived. When `transport` is OK, `app` carries the handler's status and
/// `response` its payload.
struct RpcResult {
  Status transport;
  Status app;
  PayloadPtr response;

  bool ok() const { return transport.ok() && app.ok(); }
  bool call_failed() const { return !transport.ok(); }

  static RpcResult CallFailed(Status s) {
    RpcResult r;
    r.transport = std::move(s);
    return r;
  }
  static RpcResult Ok(PayloadPtr p) {
    RpcResult r;
    r.response = std::move(p);
    return r;
  }
  static RpcResult AppError(Status s) {
    RpcResult r;
    r.app = std::move(s);
    return r;
  }
};

using RpcCallback = std::function<void(RpcResult)>;

/// Hands a handler's result back to the runtime, which turns it into the
/// wire response. May be invoked later than the delivery event (e.g. after
/// a WAL sync); a responder held across a crash of the serving node is
/// silently dropped by the runtime's incarnation guard.
using Responder = std::function<void(Result<PayloadPtr>)>;

/// Server-side dispatch: each node installs one service that handles all
/// request types addressed to it.
class RpcService {
 public:
  virtual ~RpcService() = default;

  /// Handles a request of the given `type` from node `from`. Returning a
  /// non-OK status produces an application-level error response (still a
  /// response — NOT RPC.CallFailed).
  [[nodiscard]]
  virtual Result<PayloadPtr> HandleRequest(NodeId from, const std::string& type,
                                           const PayloadPtr& request) = 0;

  /// Asynchronous variant: the service may defer the response (durable-
  /// before-ack) by stashing `respond` and invoking it later. The default
  /// runs the synchronous handler and responds inline, which keeps the
  /// message schedule byte-identical for services that never defer.
  virtual void HandleRequestAsync(NodeId from, const std::string& type,
                                  const PayloadPtr& request,
                                  Responder respond) {
    respond(HandleRequest(from, type, request));
  }
};

/// How long a caller waits for a response before synthesizing
/// RPC.CallFailed.
inline constexpr rt::Time kRpcTimeout = 100.0;

/// Per-node RPC endpoint: issues calls with timeout + CallFailed semantics
/// and dispatches incoming requests to the node's RpcService.
class RpcRuntime : public MessageSink {
 public:
  /// Registers the runtime as `self`'s sink on `transport` and caches
  /// `transport->runtime(self)` as its execution context.
  RpcRuntime(rt::Transport* transport, NodeId self);

  NodeId self() const { return self_; }
  rt::Transport* transport() { return transport_; }
  rt::Runtime* runtime() { return rt_; }

  void set_service(RpcService* service) { service_ = service; }

  /// Issues an RPC. `cb` fires exactly once — with a response, an
  /// application error, or a transport CallFailed — unless this node
  /// crashes first (crash abandons all outstanding calls; see AbortAll).
  void Call(NodeId dst, TypeName type, PayloadPtr request, RpcCallback cb);

  /// Abandons every outstanding call without invoking callbacks. Invoked
  /// by the cluster harness when this node crashes: a fail-stop node's
  /// in-flight coordinator work simply dies with it.
  void AbortAll();

  // MessageSink:
  void Deliver(Message msg) override;

 private:
  struct Outstanding {
    RpcCallback cb;
    rt::TimerId timeout_event;
    rt::Time started = 0;  ///< Issue time, for the rpc.latency histogram.
    NodeId dst = 0;
    TypeName type;  ///< Request type; names the trace span.
  };

  /// One remembered outbound reply, for duplicate-request suppression.
  struct CachedReply {
    TypeName type;  ///< Already the ".reply" name.
    PayloadPtr payload;
    Status status;
  };

  void Complete(uint64_t rpc_id, RpcResult result);
  /// Dedup key for an incoming request: rpc ids are per-caller counters,
  /// so the caller id disambiguates ids from different nodes.
  static uint64_t DedupKey(NodeId src, uint64_t rpc_id) {
    return (static_cast<uint64_t>(src) << 44) | rpc_id;
  }
  void RememberReply(uint64_t key, const Message& reply);
  /// Trace-span correlation id: rpc ids are per-runtime, so the caller id
  /// is folded in to keep concurrent nodes' spans distinct.
  uint64_t SpanId(uint64_t rpc_id) const {
    return (static_cast<uint64_t>(self_) << 40) | rpc_id;
  }

  rt::Transport* transport_;
  rt::Runtime* rt_;  ///< Cached transport_->runtime(self_).
  NodeId self_;
  RpcService* service_ = nullptr;
  uint64_t next_rpc_id_ = 1;
  /// Bumped by AbortAll. A deferred Responder captured before a crash
  /// compares its incarnation against this and drops the reply: the
  /// pre-crash node must not answer from beyond the grave.
  uint64_t incarnation_ = 0;
  /// rpc_id -> in-flight call state. Flat-hashed: Call/Complete are the
  /// hottest per-message operations, and rpc ids are dense integers.
  FlatMap<Outstanding> outstanding_;

  /// (src, rpc_id) -> the reply this node already sent. A network-level
  /// duplicate of a request must NOT re-execute the handler — handlers
  /// are not idempotent (a second lock.acquire for a lock this caller
  /// already holds answers Conflict) — so duplicates resend the
  /// remembered reply instead. Bounded FIFO; cleared on crash, like all
  /// volatile node state.
  static constexpr size_t kReplyCacheCapacity = 1024;
  FlatMap<CachedReply> reply_cache_;
  std::deque<uint64_t> reply_cache_order_;
  /// (src, rpc_id) of each request whose handler has run but whose reply
  /// is not yet sent (a durable node acks a prepare only once it is
  /// synced). A duplicate of one is dropped: the reply on its way answers
  /// the caller. Cleared on crash, like the reply cache.
  FlatMap<bool> in_flight_;

  // Registry handles ("rpc.*"), resolved against this node's runtime. On
  // the sim backend all nodes share the simulator's registry, so these
  // aggregate cluster-wide; on the socket backend they are per-node.
  obs::Counter* calls_;
  obs::Counter* ok_;
  obs::Counter* app_errors_;
  obs::Counter* call_failed_;
  obs::Counter* timeouts_;
  obs::Counter* dup_requests_;
  obs::Histogram* latency_;
};

/// Result of a gather: per-target outcome, in target order.
struct GatherResult {
  std::map<NodeId, RpcResult> replies;

  /// Targets whose transport succeeded (response or app error arrived).
  NodeSet Responded() const;
  /// Targets with an OK app-level response.
  NodeSet Succeeded() const;
};

/// Multicasts `request` to every node in `targets` (per Section 4: no
/// network multicast facility is assumed — this is a loop of sends) and
/// invokes `done` once every target has a terminal outcome. The payload
/// and the interned type name are shared across all fan-out legs; each
/// leg costs no string traffic.
void MulticastGather(RpcRuntime* runtime, const NodeSet& targets,
                     TypeName type, PayloadPtr request,
                     std::function<void(GatherResult)> done);
/// MulticastGather with a request of its own for each target:
/// `request_for` builds it as that target's leg is sent, in ascending
/// target order.
void MulticastGatherEach(RpcRuntime* runtime, const NodeSet& targets,
                         TypeName type,
                         const std::function<PayloadPtr(NodeId)>& request_for,
                         std::function<void(GatherResult)> done);

}  // namespace dcp::net

#endif  // DCP_NET_RPC_H_
