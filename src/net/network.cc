#include "net/network.h"

#include <cassert>
#include <string>
#include <utility>

namespace dcp::net {

Network::Network(sim::Simulator* sim, Rng rng, LatencyModel latency)
    : sim_(sim), rng_(rng), latency_(latency) {
  obs::MetricsRegistry& m = sim_->metrics();
  sent_ = m.counter("net.sent");
  delivered_ = m.counter("net.delivered");
  failed_ = m.counter("net.failed");
  dropped_ = m.counter("net.dropped");
  duplicated_ = m.counter("net.duplicated");
  reordered_ = m.counter("net.reordered");
}

Network::TypeCounters& Network::ForType(TypeName type) {
  if (TypeCounters* found = type_counters_.Find(type.key())) return *found;
  obs::MetricsRegistry& m = sim_->metrics();
  std::string prefix = "net.type." + type.str() + ".";
  TypeCounters tc;
  tc.sent = m.counter(prefix + "sent");
  tc.delivered = m.counter(prefix + "delivered");
  tc.failed = m.counter(prefix + "failed");
  tc.dropped = m.counter(prefix + "dropped");
  tc.duplicated = m.counter(prefix + "duplicated");
  return type_counters_.Insert(type.key(), tc);
}

obs::Counter* Network::DeliveredTo(NodeId node) {
  if (obs::Counter** found = delivered_to_.Find(node)) return *found;
  obs::Counter* c =
      sim_->metrics().counter("net.delivered_to." + std::to_string(node));
  return delivered_to_.Insert(node, c);
}

void Network::Register(NodeId node, MessageSink* sink) {
  if (node >= sinks_.size()) {
    sinks_.resize(node + 1, nullptr);
    up_.resize(node + 1, 0);
    partition_group_.resize(node + 1, 0);
  }
  sinks_[node] = sink;
  up_[node] = 1;
  partition_group_[node] = 0;
}

void Network::SetNodeUp(NodeId node, bool up) {
  assert(node < sinks_.size() && sinks_[node] != nullptr && "unknown node");
  up_[node] = up ? 1 : 0;
}

bool Network::IsUp(NodeId node) const {
  return node < up_.size() && up_[node] != 0;
}

void Network::SetPartitions(const std::vector<NodeSet>& groups) {
  std::fill(partition_group_.begin(), partition_group_.end(), 0u);
  uint32_t gid = 1;
  for (const NodeSet& g : groups) {
    for (NodeId n : g) {
      if (n < partition_group_.size()) partition_group_[n] = gid;
    }
    ++gid;
  }
}

void Network::HealPartitions() {
  std::fill(partition_group_.begin(), partition_group_.end(), 0u);
}

bool Network::SameGroup(NodeId a, NodeId b) const {
  if (a >= sinks_.size() || b >= sinks_.size() || sinks_[a] == nullptr ||
      sinks_[b] == nullptr) {
    return false;
  }
  return partition_group_[a] == partition_group_[b];
}

bool Network::Reachable(NodeId a, NodeId b) const {
  return IsUp(a) && IsUp(b) && SameGroup(a, b) && !LinkCut(a, b);
}

void Network::EnsureFaultRng() {
  if (fault_rng_seeded_) return;
  fault_rng_seeded_ = true;
  // Stream root: the fault stream is derived lazily from the latency RNG
  // so a zeroed fault model stays bit-identical (see network.h).
  fault_rng_.Seed(rng_.Next64());  // dcp-lint: allow(raw-rng)
}

void Network::set_fault_model(FaultModel model) {
  fault_model_ = std::move(model);
  if (!fault_model_.trivial()) EnsureFaultRng();
}

void Network::SetLinkFaults(NodeId src, NodeId dst, const LinkFaults& faults) {
  if (faults.trivial()) {
    fault_model_.per_link.erase({src, dst});
  } else {
    fault_model_.per_link[{src, dst}] = faults;
    EnsureFaultRng();
  }
}

void Network::SetGlobalFaults(const LinkFaults& faults) {
  fault_model_.global = faults;
  if (!faults.trivial()) EnsureFaultRng();
}

void Network::CutLink(NodeId src, NodeId dst) { cut_links_.insert({src, dst}); }

void Network::RestoreLink(NodeId src, NodeId dst) {
  cut_links_.erase({src, dst});
}

bool Network::LinkCut(NodeId src, NodeId dst) const {
  return cut_links_.count({src, dst}) > 0;
}

void Network::ClearFaults() {
  fault_model_ = FaultModel{};
  cut_links_.clear();
}

sim::Time Network::SampleLatency(const LatencyModel& model) {
  return model.base + rng_.NextDouble() * model.jitter;
}

void Network::ScheduleDelivery(Message msg, sim::Time latency,
                               std::function<void()> on_failed) {
  // The closure owns the message; addressing fields and the interned
  // type are read from it in place (the pre-interning implementation
  // copied the type string once per scheduled delivery).
  sim_->Schedule(latency, [this, msg = std::move(msg),
                           on_failed = std::move(on_failed)]() mutable {
    const NodeId src = msg.src;
    const NodeId dst = msg.dst;
    // Delivery needs the destination alive and the link intact. The
    // *sender* crashing after the send does not recall the message —
    // it is already on the wire.
    if (IsUp(dst) && SameGroup(src, dst) && !LinkCut(src, dst)) {
      delivered_->Increment();
      ForType(msg.type).delivered->Increment();
      DeliveredTo(dst)->Increment();
      MessageSink* sink = sinks_[dst];
      assert(sink != nullptr);
      sink->Deliver(std::move(msg));
    } else {
      failed_->Increment();
      ForType(msg.type).failed->Increment();
      sim_->tracer().Instant("net", "net.fail", src,
                             {{"type", msg.type},
                              {"dst", std::to_string(dst)}});
      // Notify the sender side (if it is still alive to care).
      if (on_failed && IsUp(src)) on_failed();
    }
  });
}

void Network::Send(Message msg, std::function<void()> on_failed) {
  // A crashed node cannot emit messages (fail-stop).
  if (!IsUp(msg.src)) return;
  if (send_tap_) send_tap_(msg);
  sent_->Increment();
  ForType(msg.type).sent->Increment();

  // The trivial-model fast path must not touch fault_rng_, so fault-free
  // runs consume exactly the random stream they always did.
  const LinkFaults* faults = nullptr;
  if (!fault_model_.trivial()) {
    const LinkFaults& f = fault_model_.For(msg.src, msg.dst);
    if (!f.trivial()) faults = &f;
  }
  const LatencyModel& model =
      (faults && faults->latency) ? *faults->latency : latency_;

  if (faults == nullptr) {
    ScheduleDelivery(std::move(msg), SampleLatency(model),
                     std::move(on_failed));
    return;
  }

  if (faults->drop > 0 && fault_rng_.Bernoulli(faults->drop)) {
    dropped_->Increment();
    ForType(msg.type).dropped->Increment();
    sim_->tracer().Instant("net", "net.drop", msg.src,
                           {{"type", msg.type},
                            {"dst", std::to_string(msg.dst)}});
    // A dropped message is indistinguishable from an unreachable
    // destination at the transport layer: the sender still learns (via
    // on_failed, i.e. RPC.CallFailed) at the would-be delivery time.
    // Dropped responses carry no on_failed and surface as caller timeout.
    NodeId src = msg.src;
    sim_->Schedule(SampleLatency(model),
                   [this, src, on_failed = std::move(on_failed)] {
                     if (on_failed && IsUp(src)) on_failed();
                   });
    return;
  }

  sim::Time latency = SampleLatency(model);
  if (faults->reorder > 0 && fault_rng_.Bernoulli(faults->reorder)) {
    reordered_->Increment();
    latency += fault_rng_.NextDouble() * faults->reorder_spike;
  }
  if (faults->duplicate > 0 && fault_rng_.Bernoulli(faults->duplicate)) {
    duplicated_->Increment();
    ForType(msg.type).duplicated->Increment();
    sim_->tracer().Instant("net", "net.duplicate", msg.src,
                           {{"type", msg.type},
                            {"dst", std::to_string(msg.dst)}});
    // The copy takes its own (possibly overtaking) latency sample and
    // carries no on_failed: the original already reports transport
    // failure, and CallFailed must not fire twice per logical send.
    Message copy = msg;
    ScheduleDelivery(std::move(copy), SampleLatency(model), nullptr);
  }
  ScheduleDelivery(std::move(msg), latency, std::move(on_failed));
}

}  // namespace dcp::net
