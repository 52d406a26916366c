#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace dcp::sim {

Simulator::Simulator() {
  obs_.tracer.set_clock([this] { return now_; });
  scheduled_counter_ = obs_.metrics.counter("sim.events_scheduled");
  executed_counter_ = obs_.metrics.counter("sim.events_executed");
  cancelled_counter_ = obs_.metrics.counter("sim.events_cancelled");
  heap_.reserve(64);
  slots_.reserve(64);
}

void Simulator::SiftUp(size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!Before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::SiftDown(size_t i) {
  const size_t n = heap_.size();
  HeapEntry e = heap_[i];
  while (true) {
    size_t first = i * kArity + 1;
    if (first >= n) break;
    size_t last = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::PopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

const Simulator::HeapEntry* Simulator::PeekLive() {
  while (!heap_.empty() && EntryDead(heap_.front())) {
    PopTop();
  }
  return heap_.empty() ? nullptr : &heap_.front();
}

void Simulator::MaybeCompact() {
  // Compact once tombstones outnumber live entries (and the heap is big
  // enough to matter). Filtering preserves the heap's contents, and the
  // strict (time, seq) total order makes the rebuilt pop sequence
  // identical, so compaction is invisible to the simulation.
  if (heap_.size() < 64 || heap_.size() - live_ <= live_) return;
  size_t out = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (!EntryDead(heap_[i])) heap_[out++] = heap_[i];
  }
  heap_.resize(out);
  if (out > 1) {
    for (size_t i = (out - 2) / kArity + 1; i-- > 0;) SiftDown(i);
  }
}

EventId Simulator::Schedule(Time delay, std::function<void()> fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, std::function<void()> fn) {
  assert(when >= now_);
  uint64_t seq = next_seq_++;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].seq = seq;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(HeapEntry{when, seq, slot});
  SiftUp(heap_.size() - 1);
  ++live_;
  scheduled_counter_->Increment();
  return EventId{seq, slot};
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.seq != id.seq) return false;  // Already ran, cancelled, or recycled.
  s.seq = 0;
  s.fn = nullptr;  // Release the closure's resources now, not at pop time.
  free_slots_.push_back(id.slot);
  --live_;
  cancelled_counter_->Increment();
  MaybeCompact();
  return true;
}

bool Simulator::Step() {
  const HeapEntry* top = PeekLive();
  if (top == nullptr) return false;
  now_ = top->when;
  uint32_t slot = top->slot;
  PopTop();
  std::function<void()> fn = std::move(slots_[slot].fn);
  slots_[slot].seq = 0;
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);
  --live_;
  executed_counter_->Increment();
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Time deadline) {
  while (true) {
    const HeapEntry* top = PeekLive();
    if (top == nullptr || top->when > deadline) break;
    Step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace dcp::sim
