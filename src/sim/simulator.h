#ifndef DCP_SIM_SIMULATOR_H_
#define DCP_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/observability.h"
#include "runtime/runtime.h"

namespace dcp::sim {

/// Virtual time, in arbitrary units (the availability benches interpret it
/// as hours; the protocol layer as milliseconds — the kernel doesn't care).
using Time = rt::Time;

/// Opaque handle identifying a scheduled event, usable to cancel it.
/// `seq` is the event's insertion sequence number (the generation tag);
/// `slot` locates its storage so Cancel never searches. Identical to the
/// runtime seam's timer handle — the simulator IS the sim-backend Runtime.
using EventId = rt::TimerId;

/// Deterministic discrete-event simulation kernel.
///
/// Events are closures ordered by (time, insertion sequence); ties in time
/// execute in scheduling order, which keeps runs fully deterministic. The
/// kernel is single-threaded by design: concurrency in the simulated
/// distributed system comes from interleaving events, not OS threads.
///
/// The queue is a 4-ary min-heap over (time, seq) with lazy cancellation:
/// Cancel is O(1) — it retires the event's storage slot (freeing the
/// closure immediately) and leaves a tombstone entry in the heap, which
/// Step/RunUntil discard when they surface. A slot's `seq` acts as its
/// generation tag: a heap entry is live iff its seq still matches the
/// slot's, so slots recycle safely while stale entries drain. Because the
/// (time, seq) order is a strict total order and tombstones are invisible
/// to execution, lazy cancellation cannot reorder anything — same-seed
/// runs are byte-identical to the eager-erase implementation.
///
/// The simulator is the sim backend of the `rt::Runtime` seam: protocol
/// and storage code written against Runtime runs here deterministically.
/// `final` keeps calls through a concrete `Simulator*` devirtualized, so
/// the event-queue hot path pays nothing for the seam.
class Simulator final : public rt::Runtime {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time Now() const override { return now_; }

  /// The simulation's observability context. The tracer's clock is wired
  /// to this simulator's virtual time; layers above reach metrics and
  /// tracing through their runtime pointer.
  obs::Observability& obs() override { return obs_; }
  const obs::Observability& obs() const override { return obs_; }
  obs::MetricsRegistry& metrics() { return obs_.metrics; }
  obs::EventTracer& tracer() { return obs_.tracer; }

  /// Schedules `fn` to run at `Now() + delay` (delay must be >= 0).
  EventId Schedule(Time delay, std::function<void()> fn) override;

  /// Schedules `fn` at absolute time `when` (>= Now()).
  EventId ScheduleAt(Time when, std::function<void()> fn) override;

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled. O(1): the closure is released immediately; the queue
  /// entry is discarded lazily.
  bool Cancel(EventId id) override;

  /// Runs a single event. Returns false if the queue is empty.
  bool Step();

  /// Runs until the queue is empty.
  void Run();

  /// Runs events with time <= `deadline`, then advances the clock to
  /// `deadline` (even if the queue still holds later events).
  void RunUntil(Time deadline);

  /// Number of events executed so far: the "sim.events_executed"
  /// counter, the only store of this count.
  uint64_t events_executed() const { return executed_counter_->value(); }

  /// Number of pending (live, uncancelled) events.
  size_t pending() const { return live_; }

 private:
  /// Heap order key plus the slot holding the closure. 24 bytes — cheap
  /// to swap during sifts; the std::function stays put in its slot.
  struct HeapEntry {
    Time when;
    uint64_t seq;
    uint32_t slot;
  };

  /// Event storage. `seq == 0` marks the slot free (or, equivalently,
  /// any heap entry pointing here with a different seq as a tombstone).
  struct Slot {
    uint64_t seq = 0;
    std::function<void()> fn;
  };

  static constexpr size_t kArity = 4;

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  bool EntryDead(const HeapEntry& e) const {
    return slots_[e.slot].seq != e.seq;
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopTop();
  /// Discards tombstones at the top; returns the live minimum, or
  /// nullptr when no live event remains.
  const HeapEntry* PeekLive();
  /// Rebuilds the heap without tombstones once they dominate, bounding
  /// memory in cancel-heavy workloads (e.g. RPC timeout timers that are
  /// almost always cancelled by the reply).
  void MaybeCompact();

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;

  obs::Observability obs_;
  // Kernel self-metrics, cached at construction (registry handles are
  // stable): scheduled / executed / cancelled event counts.
  obs::Counter* scheduled_counter_;
  obs::Counter* executed_counter_;
  obs::Counter* cancelled_counter_;
};

/// Re-arms itself on a fixed period until stopped. Now backend-agnostic;
/// see rt::PeriodicTimer. The alias keeps the historical sim-layer name
/// for tests and sim-only callers.
using PeriodicTask = rt::PeriodicTimer;

}  // namespace dcp::sim

#endif  // DCP_SIM_SIMULATOR_H_
