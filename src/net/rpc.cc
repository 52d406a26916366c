#include "net/rpc.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace dcp::net {

RpcRuntime::RpcRuntime(rt::Transport* transport, NodeId self)
    : transport_(transport), rt_(transport->runtime(self)), self_(self) {
  transport_->Register(self_, this);
  obs::MetricsRegistry& m = rt_->metrics();
  calls_ = m.counter("rpc.calls");
  ok_ = m.counter("rpc.ok");
  app_errors_ = m.counter("rpc.app_errors");
  call_failed_ = m.counter("rpc.call_failed");
  timeouts_ = m.counter("rpc.timeouts");
  dup_requests_ = m.counter("rpc.dup_requests");
  latency_ = m.histogram("rpc.latency");
  outstanding_.Reserve(32);
}

void RpcRuntime::Call(NodeId dst, TypeName type, PayloadPtr request,
                      RpcCallback cb) {
  uint64_t id = next_rpc_id_++;
  calls_->Increment();

  Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.rpc_id = id;
  msg.kind = Message::Kind::kRequest;
  msg.type = type;
  msg.payload = std::move(request);

  rt::Runtime* sim = rt_;
  sim->tracer().BeginSpan("rpc", type.str(), self_, SpanId(id),
                          {{"dst", std::to_string(dst)}});

  rt::TimerId timer = sim->Schedule(kRpcTimeout, [this, id] {
    timeouts_->Increment();
    Complete(id, RpcResult::CallFailed(
                     Status::TimedOut("rpc timeout; treating as CallFailed")));
  });
  outstanding_.Insert(
      id, Outstanding{std::move(cb), timer, sim->Now(), dst, type});

  transport_->Send(std::move(msg), [this, id] {
    Complete(id, RpcResult::CallFailed(
                     Status::CallFailed("destination unreachable")));
  });
}

void RpcRuntime::AbortAll() {
  obs::EventTracer& tracer = rt_->tracer();
  // The flat map iterates in table order; abandon spans in rpc-id order
  // so crash traces stay identical to the ordered-map implementation.
  std::vector<uint64_t> ids;
  ids.reserve(outstanding_.size());
  outstanding_.ForEach([&ids](uint64_t id, Outstanding&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    Outstanding& out = *outstanding_.Find(id);
    rt_->Cancel(out.timeout_event);
    tracer.EndSpan("rpc", out.type.str(), self_, SpanId(id),
                   {{"outcome", "abandoned"}});
  }
  outstanding_.Clear();
  // Invalidate any deferred responders still held by the service: the
  // handler ran, but the node died before acknowledging, so the caller
  // must observe a timeout, not a post-crash reply.
  ++incarnation_;
  // The reply cache is volatile server-side state: a crashed-and-
  // recovered node has genuinely forgotten what it answered.
  reply_cache_.Clear();
  reply_cache_order_.clear();
}

void RpcRuntime::RememberReply(uint64_t key, const Message& reply) {
  if (reply_cache_order_.size() >= kReplyCacheCapacity) {
    reply_cache_.Erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
  reply_cache_.Insert(key,
                      CachedReply{reply.type, reply.payload, reply.status});
  reply_cache_order_.push_back(key);
}

void RpcRuntime::Complete(uint64_t rpc_id, RpcResult result) {
  Outstanding* out = outstanding_.Find(rpc_id);
  if (out == nullptr) return;  // Already completed or aborted.
  rt::Runtime* sim = rt_;
  RpcCallback cb = std::move(out->cb);
  sim->Cancel(out->timeout_event);
  latency_->Observe(sim->Now() - out->started);

  const char* outcome;
  if (result.ok()) {
    ok_->Increment();
    outcome = "ok";
  } else if (result.call_failed()) {
    call_failed_->Increment();
    outcome = result.transport.code() == StatusCode::kTimedOut
                  ? "timeout"
                  : "call_failed";
  } else {
    app_errors_->Increment();
    outcome = "app_error";
  }
  sim->tracer().EndSpan("rpc", out->type.str(), self_, SpanId(rpc_id),
                        {{"outcome", outcome}});
  outstanding_.Erase(rpc_id);
  // A crashed caller never observes completions.
  if (!transport_->IsUp(self_)) return;
  cb(std::move(result));
}

void RpcRuntime::Deliver(Message msg) {
  if (!transport_->IsUp(self_)) return;  // Crashed nodes receive nothing.
  switch (msg.kind) {
    case Message::Kind::kRequest: {
      assert(service_ != nullptr && "node has no RpcService installed");
      const uint64_t dedup_key = DedupKey(msg.src, msg.rpc_id);
      if (const CachedReply* cached = reply_cache_.Find(dedup_key)) {
        // A duplicate delivery of a request we already answered (fault-
        // model duplication). Re-executing the handler would double-apply
        // its side effects; resend the remembered reply instead.
        dup_requests_->Increment();
        Message reply;
        reply.src = self_;
        reply.dst = msg.src;
        reply.rpc_id = msg.rpc_id;
        reply.kind = Message::Kind::kResponse;
        reply.type = cached->type;
        reply.payload = cached->payload;
        reply.status = cached->status;
        transport_->Send(std::move(reply));
        break;
      }
      const NodeId src = msg.src;
      const uint64_t rpc_id = msg.rpc_id;
      const TypeName reply_type = msg.type.Reply();
      const uint64_t inc = incarnation_;
      service_->HandleRequestAsync(
          msg.src, msg.type, msg.payload,
          [this, inc, src, rpc_id, dedup_key,
           reply_type](Result<PayloadPtr> result) {
            // Crashed (or crashed-and-recovered) between delivery and
            // completion: the pre-crash handler's answer is void.
            if (inc != incarnation_ || !transport_->IsUp(self_)) return;
            Message reply;
            reply.src = self_;
            reply.dst = src;
            reply.rpc_id = rpc_id;
            reply.kind = Message::Kind::kResponse;
            reply.type = reply_type;
            if (result.ok()) {
              reply.payload = std::move(result).value();
            } else {
              reply.status = result.status();
            }
            RememberReply(dedup_key, reply);
            // Lost replies surface at the caller via its timeout.
            transport_->Send(std::move(reply));
          });
      break;
    }
    case Message::Kind::kResponse: {
      if (msg.status.ok()) {
        Complete(msg.rpc_id, RpcResult::Ok(std::move(msg.payload)));
      } else {
        Complete(msg.rpc_id, RpcResult::AppError(std::move(msg.status)));
      }
      break;
    }
    case Message::Kind::kCallFailed:
      // CallFailed is synthesized locally by the on_failed hook / timeout;
      // nothing arrives on the wire with this kind.
      break;
  }
}

NodeSet GatherResult::Responded() const {
  NodeSet out;
  for (const auto& [node, r] : replies) {
    if (!r.call_failed()) out.Insert(node);
  }
  return out;
}

NodeSet GatherResult::Succeeded() const {
  NodeSet out;
  for (const auto& [node, r] : replies) {
    if (r.ok()) out.Insert(node);
  }
  return out;
}

namespace {

struct GatherState {
  uint32_t expected = 0;
  GatherResult result;
  std::function<void(GatherResult)> done;
};

}  // namespace

void MulticastGather(RpcRuntime* runtime, const NodeSet& targets,
                     TypeName type, PayloadPtr request,
                     std::function<void(GatherResult)> done) {
  MulticastGatherEach(
      runtime, targets, type, [&request](NodeId) { return request; },
      std::move(done));
}

void MulticastGatherEach(RpcRuntime* runtime, const NodeSet& targets,
                         TypeName type,
                         const std::function<PayloadPtr(NodeId)>& request_for,
                         std::function<void(GatherResult)> done) {
  auto state = std::make_shared<GatherState>();
  state->expected = targets.Size();
  state->done = std::move(done);

  if (state->expected == 0) {
    // Complete asynchronously for uniform re-entrancy behaviour.
    runtime->runtime()->Schedule(
        0, [state] { state->done(std::move(state->result)); });
    return;
  }

  for (NodeId target : targets) {
    runtime->Call(target, type, request_for(target),
                  [state, target](RpcResult r) {
                    state->result.replies.emplace(target, std::move(r));
                    if (state->result.replies.size() == state->expected) {
                      state->done(std::move(state->result));
                    }
                  });
  }
}

}  // namespace dcp::net
