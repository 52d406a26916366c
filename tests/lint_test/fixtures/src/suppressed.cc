// dcp_lint fixture: every violation below carries a suppression, so this
// file must lint clean. Exercises all three grammar forms: trailing
// comment, standalone comment on the line above, and file-wide.
// dcp-lint: allow-file(unordered-trace)
#include <chrono>
#include <unordered_map>

struct Rng {
  explicit Rng(unsigned long long seed) { (void)seed; }
  void Seed(unsigned long long seed) { (void)seed; }
  unsigned long long Next64() { return 1; }
};

struct Tracer {
  void Instant(int v) { (void)v; }
};
Tracer& tracer();

namespace redo {
struct Resolve {
  int owner;
  int outcome;
};
}  // namespace redo

void Persist(const redo::Resolve& record) { (void)record; }

struct RpcRuntime {
  void set_service(void* service) { (void)service; }
};

struct EventId {
  unsigned long long seq = 0;
};

struct Simulator {
  template <typename Fn>
  EventId Schedule(double delay, Fn&& fn) {
    (void)delay;
    (void)fn;
    return {};
  }
};

// Trailing-comment form.
double WallSeconds() {
  auto now = std::chrono::steady_clock::now();  // dcp-lint: allow(wall-clock)
  (void)now;
  return 0.0;
}

// Standalone-line-above form (applies to the next code line), plus a
// comma-separated rule list on the re-seed below.
void MakeStream(unsigned long long seed, Rng& other) {
  // dcp-lint: allow(raw-rng)
  Rng rng(seed);
  rng.Seed(other.Next64());  // dcp-lint: allow(raw-rng, wall-clock)
}

// Replay path: resolves are re-appended verbatim from the scanned tail,
// so the effects they cover are already durable.
void Recover() {
  Persist(redo::Resolve{1, 1});  // dcp-lint: allow(resolve-order)
}

// The rpc-dedup rule is satisfied by its own annotation form.
struct AnnotatedNode {
  void Init() {
    // dcp-lint: rpc-dedup(reply-cache)
    rpc_.set_service(nullptr);
  }
  RpcRuntime rpc_;
};

// raw-this, suppressed with the standalone form.
struct Task {
  void Arm() {
    // dcp-lint: allow(raw-this)
    pending_ = sim_->Schedule(1.0, [this] { Arm(); });
  }
  Simulator* sim_ = nullptr;
  EventId pending_;
};

// Covered by the file-wide allow at the top of the file.
void Dump(const std::unordered_map<int, int>& counts) {
  for (const auto& kv : counts) {
    tracer().Instant(kv.second);
  }
}
