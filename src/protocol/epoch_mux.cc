#include "protocol/epoch_mux.h"

#include <algorithm>
#include <string>

#include "net/rpc.h"
#include "protocol/operations.h"

namespace dcp::protocol {

EpochMux::EpochMux(
    ReplicaNode* node,
    std::vector<std::pair<storage::ObjectId, std::vector<NodeId>>> ranked,
    rt::Time check_interval)
    : node_(node), check_interval_(check_interval) {
  for (const auto& [object, ranking] : ranked) {
    ring_.push_back(object);
    ranks_[object] = static_cast<size_t>(
        std::find(ranking.begin(), ranking.end(), node_->self()) -
        ranking.begin());
  }

  // One timer per node: visit the whole ring once per check_interval by
  // ticking `rounds` times per interval, kBatchPerTick objects per tick.
  size_t rounds =
      ring_.empty() ? 1 : (ring_.size() + kBatchPerTick - 1) / kBatchPerTick;
  tick_interval_ = check_interval / static_cast<rt::Time>(rounds);

  obs::MetricsRegistry& m = node_->runtime()->metrics();
  const std::string p = "shard.mux." + std::to_string(node_->self()) + ".";
  ticks_ = m.counter(p + "ticks");
  checks_run_ = m.counter(p + "checks_run");
  checks_ok_ = m.counter(p + "checks_ok");
  checks_failed_ = m.counter(p + "checks_failed");
  dirty_checks_ = m.counter(p + "dirty_checks");

  // Stagger first fires by node id so muxes do not tick in lockstep.
  rt::Time stagger = static_cast<rt::Time>(node_->self()) *
                     (tick_interval_ / (node_->all_nodes().Size() + 1));
  ticker_ = std::make_unique<rt::PeriodicTimer>(
      node_->runtime(), tick_interval_ + stagger, tick_interval_,
      [this] { Tick(); });
}

EpochMux::~EpochMux() = default;

void EpochMux::MarkDirty(storage::ObjectId object) {
  if (ranks_.count(object) > 0) dirty_.insert(object);
}

void EpochMux::OnCrash() {
  in_flight_.clear();
  dirty_.clear();
}

void EpochMux::OnRecover() {
  // A recovered node's hosted replicas may be arbitrarily stale, and it
  // has answered no poll since its crash, so it holds duty for every
  // lineage until a peer's poll reaches it: re-examine them promptly.
  for (storage::ObjectId object : ring_) dirty_.insert(object);
}

void EpochMux::Tick() {
  if (!node_->rpc().transport()->IsUp(node_->self())) return;
  ticks_->Increment();
  if (ring_.empty()) return;

  // Dirty objects first: they asked for prompt attention.
  std::set<storage::ObjectId> dirty;
  dirty.swap(dirty_);
  for (storage::ObjectId object : dirty) MaybeCheck(object, true);

  for (uint32_t i = 0; i < kBatchPerTick && i < ring_.size(); ++i) {
    storage::ObjectId object = ring_[cursor_];
    cursor_ = (cursor_ + 1) % ring_.size();
    MaybeCheck(object, false);
  }
}

bool EpochMux::HoldsDuty(storage::ObjectId object) const {
  const size_t rank = ranks_.at(object);
  if (rank == 0) return true;
  return node_->runtime()->Now() - node_->last_peer_poll(object) >=
         static_cast<rt::Time>(rank + 1) * check_interval_;
}

void EpochMux::MaybeCheck(storage::ObjectId object, bool from_dirty) {
  if (in_flight_.count(object) > 0) return;
  if (!HoldsDuty(object)) return;
  in_flight_.insert(object);
  checks_run_->Increment();
  if (from_dirty) dirty_checks_->Increment();
  node_->runtime()
      ->metrics()
      .labeled_counter("shard.mux.object_checks", std::to_string(object),
                       kMetricCap)
      ->Increment();
  StartEpochCheck(node_, object, [this, object](Status s) {
    in_flight_.erase(object);
    if (s.ok()) {
      checks_ok_->Increment();
    } else {
      checks_failed_->Increment();
      // Try again promptly; the lineage may still be split.
      dirty_.insert(object);
    }
  });
}

}  // namespace dcp::protocol
