// Host-speed calibration: a fixed piece of reference work, built only from
// the standard library, timed between the rounds of a run.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 15-45% over minutes as neighbours come and go; the same deterministic
// simulator round took 3.2 s in one run and 4.7 s in a run ten minutes
// later. The reference work slows down with the host but not with the code
// under test, so dividing a round's host times by the reference's slowdown
// around it removes most of the host's drift and keeps the code's share.
// Each part below is the kind of work the protocol stack does between
// syscalls; a simple arithmetic loop tracked the drift least well.

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"

namespace dcp::perfbench {
namespace {

/// Sorting: compares, swaps and branch mispredictions.
uint64_t SortWork() {
  std::vector<uint64_t> v(200000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = Mix(i);
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Hash-table inserts and lookups with their allocations.
uint64_t HashTableWork() {
  std::unordered_map<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 100000; ++i) m[Mix(i)] = i;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < 200000; ++i) {
    auto it = m.find(Mix(i));
    if (it != m.end()) sum += it->second;
  }
  return sum;
}

/// A small discrete-event loop: a timer heap and type-erased callbacks.
uint64_t EventLoopWork() {
  using Event = std::pair<double, uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<std::function<uint64_t(uint64_t)>> handlers;
  for (uint64_t i = 0; i < 64; ++i) {
    handlers.push_back([i](uint64_t x) { return Mix(x + i); });
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    queue.push({static_cast<double>(Mix(i) % 1000), i});
  }
  uint64_t state = 1;
  for (int i = 0; i < 300000; ++i) {
    const Event e = queue.top();
    queue.pop();
    state = handlers[e.second % handlers.size()](state ^ e.second);
    queue.push({e.first + static_cast<double>(state % 100), state});
  }
  return state;
}

/// Building and chasing a random cycle through 4 MiB of indices (larger
/// than a core's caches), ordered-map churn and byte hashing. Everything
/// is allocated per call and freed again, so the reference work does not
/// raise the benchmark's peak memory above a round's.
uint64_t MemoryWork() {
  constexpr uint32_t kSlots = 1u << 20;
  std::vector<uint32_t> cycle(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) cycle[i] = i;
  // Sattolo's shuffle: one cycle through every slot.
  uint64_t s = 0x43414c4942ULL;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    s = Mix(s);
    std::swap(cycle[i], cycle[s % i]);
  }
  uint64_t sum = 0;
  uint32_t at = 0;
  for (int i = 0; i < 150000; ++i) {
    at = cycle[at];
    sum += at;
  }
  std::map<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 20000; ++i) m[Mix(i)] = i;
  for (uint64_t i = 0; i < 20000; i += 2) m.erase(Mix(i));
  for (const auto& [k, v] : m) sum += k ^ v;
  std::vector<uint8_t> buf(1 << 20, 0x5a);
  for (int i = 0; i < 4; ++i) {
    buf[static_cast<size_t>(i)] = static_cast<uint8_t>(sum);
    sum += HashBytes(buf);
  }
  return sum;
}

}  // namespace

double CalibrationSeconds() {
  static volatile uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  sink = sink + SortWork() + HashTableWork() + EventLoopWork() + MemoryWork();
  return SecondsSince(t0);
}

}  // namespace dcp::perfbench
