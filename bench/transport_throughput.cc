// Measures the real-threads socket backend two ways:
//
//  1. Protocol rows: end-to-end writes, partial writes, and reads over
//     the loopback TCP mesh (ops/sec + client-visible latency
//     percentiles). Latency-bound — informational only.
//  2. Flood rows: raw transport-level message floods through
//     rt::SocketTransport, run twice — scatter-gather batching + pooled
//     buffers on, then both off (one frame per syscall, an allocation
//     per send). The batched/unbatched ratio is reported as
//     `batch_speedup`; both sides run on the same machine in the same
//     process, so the ratio is stable enough for the CI regression gate
//     (see bench/check_regression.py) even though the absolute numbers
//     are not.
//
// These are wall-clock numbers from a shared CI machine — the CI
// transport-smoke job gates only on "completed with nonzero throughput",
// never on absolute values (see .github/workflows/ci.yml). The
// bench-regression job additionally gates the speedup ratios against
// bench/baseline_transport.json.
//
// Usage: transport_throughput [--quick] [--metrics-json <path>]

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "harness/socket_cluster.h"
#include "protocol/wire_codec.h"
#include "runtime/socket_transport.h"
#include "storage/versioned_object.h"
#include "util/statistics.h"

// Timing a real multithreaded backend is this bench's whole point; the
// sim-time rule does not apply.  // dcp-lint: allow-file(wall-clock)
#include <chrono>

namespace dcp {
namespace {

using harness::SocketCluster;
using harness::SocketClusterOptions;
using storage::Update;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  const char* name;
  uint32_t num_nodes;
  int ops;
  bool partial;  ///< Alternate partial writes into the stream.
};

struct RowResult {
  double ops_per_sec = 0;
  double write_p50_ms = 0;
  double write_p99_ms = 0;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  rt::TransportCounters counters;
  bool ok = false;
};

RowResult RunConfig(const Config& cfg) {
  RowResult result;
  SocketClusterOptions options;
  options.num_nodes = cfg.num_nodes;
  options.coterie = protocol::CoterieKind::kMajority;
  options.initial_value = std::vector<uint8_t>(64, 0);
  SocketCluster cluster(options);
  Status started = cluster.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return result;
  }

  SampleStats write_ms, read_ms;
  const Clock::time_point bench_start = Clock::now();
  for (int i = 0; i < cfg.ops; ++i) {
    const NodeId coordinator = static_cast<NodeId>(i) % cfg.num_nodes;
    Clock::time_point t0 = Clock::now();
    if (cfg.partial && i % 2 == 1) {
      auto w = cluster.WriteSyncRetry(
          coordinator, 0,
          Update::Partial(static_cast<uint64_t>(i % 32),
                          {static_cast<uint8_t>(i)}),
          /*max_attempts=*/20);
      if (!w.ok()) {
        std::fprintf(stderr, "partial write %d failed: %s\n", i,
                     w.status().ToString().c_str());
        return result;
      }
    } else {
      auto w = cluster.WriteSyncRetry(
          coordinator, 0,
          Update::Total(std::vector<uint8_t>(64, static_cast<uint8_t>(i))),
          /*max_attempts=*/20);
      if (!w.ok()) {
        std::fprintf(stderr, "write %d failed: %s\n", i,
                     w.status().ToString().c_str());
        return result;
      }
    }
    write_ms.Add(SecondsSince(t0) * 1e3);

    if (i % 4 == 3) {
      t0 = Clock::now();
      auto r = cluster.ReadSyncRetry((coordinator + 1) % cfg.num_nodes, 0,
                                     /*max_attempts=*/20);
      if (!r.ok()) {
        std::fprintf(stderr, "read %d failed: %s\n", i,
                     r.status().ToString().c_str());
        return result;
      }
      read_ms.Add(SecondsSince(t0) * 1e3);
    }
  }
  const double elapsed = SecondsSince(bench_start);
  const double total_ops =
      static_cast<double>(write_ms.count() + read_ms.count());

  result.ops_per_sec = elapsed > 0 ? total_ops / elapsed : 0;
  result.write_p50_ms = write_ms.Percentile(50);
  result.write_p99_ms = write_ms.Percentile(99);
  result.read_p50_ms = read_ms.Percentile(50);
  result.read_p99_ms = read_ms.Percentile(99);
  result.counters = cluster.transport().counters();
  result.ok = true;
  cluster.Stop();
  return result;
}

// --- raw transport flood ---------------------------------------------------

/// Counts deliveries; the flood threads throttle on it (bounded
/// in-flight window) so the bounded outbound queues never overflow and
/// the measurement covers sustained streaming, not burst absorption.
class CountingSink : public net::MessageSink {
 public:
  void Deliver(net::Message) override {
    received_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> received_{0};
};

struct FloodStats {
  double msgs_per_sec = 0;
  double realized_batch = 0;  ///< frames per writev syscall
  double pool_hit_rate = 0;
  uint64_t failed = 0;
  bool ok = false;
};

/// Bursts `msgs_per_edge` messages around the ring (every node
/// i -> (i+1) % n, two sender threads per edge) with every receiver's
/// read side paused, so the whole burst parks in the outbound queues
/// (and whatever the loopback kernel buffers absorbed). Then reads
/// resume and the measured phase begins: the queues drain through the
/// blocked-writer path — POLLOUT re-arming on the I/O thread, which
/// either coalesces up to max_batch_frames frames per syscall or (with
/// batching off) pays one syscall per frame on the pipeline's
/// bottleneck thread. Measuring only the drain keeps the enqueue
/// phase's thread scheduling out of the number; this is also the
/// regime the batching change actually targets. Returns drain
/// messages/sec.
FloodStats RunFlood(uint32_t num_nodes, uint64_t msgs_per_edge,
                    uint32_t max_batch_frames, bool pool_buffers) {
  FloodStats stats;
  constexpr int kThreadsPerEdge = 2;

  rt::SocketTransportOptions options;
  options.num_nodes = num_nodes;
  options.num_workers = 2;
  options.codec = protocol::MakeWireCodec();
  options.max_batch_frames = max_batch_frames;
  options.pool_buffers = pool_buffers;
  // The burst parks in the outbound queues by design; size them for it.
  options.max_queue_frames = msgs_per_edge + 1024;
  options.max_queue_bytes = size_t{1} << 30;
  rt::SocketTransport transport(options);
  std::vector<std::unique_ptr<CountingSink>> sinks;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    sinks.push_back(std::make_unique<CountingSink>());
    transport.Register(NodeId{i}, sinks.back().get());
  }
  Status started = transport.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "flood start failed: %s\n",
                 started.ToString().c_str());
    return stats;
  }

  // Park the burst: receivers stop reading, so sends queue up instead
  // of draining inline while the producer threads still own the CPU.
  for (uint32_t src = 0; src < num_nodes; ++src) {
    transport.PauseReadsForTest(src, (src + 1) % num_nodes, true);
  }

  std::atomic<uint64_t> failed{0};
  std::vector<std::atomic<uint64_t>> sent(num_nodes);
  std::vector<std::thread> flooders;
  for (uint32_t src = 0; src < num_nodes; ++src) {
    const NodeId dst = (src + 1) % num_nodes;
    for (int t = 0; t < kThreadsPerEdge; ++t) {
      flooders.emplace_back([&, src, dst] {
        net::Message msg;
        msg.src = src;
        msg.dst = dst;
        msg.kind = net::Message::Kind::kRequest;
        msg.type = net::TypeName("flood");
        // ~300-byte frames: big enough that the parked burst dwarfs
        // what the loopback kernel buffers absorb (so the measured
        // drain really exercises the queued-write path), small enough
        // that per-frame costs — not memcpy — dominate.
        msg.status = Status::Internal(std::string(256, 'x'));
        for (;;) {
          const uint64_t seq =
              sent[src].fetch_add(1, std::memory_order_relaxed);
          if (seq >= msgs_per_edge) break;
          msg.rpc_id = seq;
          transport.Send(msg, [&] {
            failed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
  }
  for (auto& t : flooders) t.join();

  // Measured phase: resume reads and time the drain.
  const Clock::time_point t0 = Clock::now();
  for (uint32_t src = 0; src < num_nodes; ++src) {
    transport.PauseReadsForTest(src, (src + 1) % num_nodes, false);
  }
  const uint64_t total = msgs_per_edge * num_nodes;
  uint64_t delivered = 0;
  const auto drain_deadline = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    delivered = failed.load(std::memory_order_relaxed);
    for (auto& s : sinks) delivered += s->received();
    if (delivered >= total || Clock::now() > drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed = SecondsSince(t0);

  const rt::TransportCounters c = transport.counters();
  const util::BufferPool& pool = transport.buffer_pool();
  stats.msgs_per_sec =
      elapsed > 0 ? static_cast<double>(total) / elapsed : 0;
  stats.realized_batch =
      c.writev_calls > 0 ? static_cast<double>(c.frames_sent) /
                               static_cast<double>(c.writev_calls)
                         : 0;
  const uint64_t acquires = pool.hits() + pool.misses();
  stats.pool_hit_rate =
      acquires > 0
          ? static_cast<double>(pool.hits()) / static_cast<double>(acquires)
          : 0;
  stats.failed = failed.load(std::memory_order_relaxed);
  stats.ok = delivered >= total && stats.failed == 0;
  transport.Stop();
  return stats;
}

int Run(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_path = bench::MetricsJsonPathFromArgs(argc, argv);

  std::vector<Config> configs;
  if (quick) {
    configs.push_back({"n3_mixed_quick", 3, 60, true});
    configs.push_back({"n5_mixed_quick", 5, 40, true});
  } else {
    configs.push_back({"n3_total", 3, 400, false});
    configs.push_back({"n3_mixed", 3, 400, true});
    configs.push_back({"n5_mixed", 5, 300, true});
    configs.push_back({"n7_mixed", 7, 200, true});
  }

  bench::BenchJsonWriter json("transport_throughput");
  bool all_ok = true;
  std::printf("%-16s %10s %12s %12s %12s %12s %10s\n", "config", "ops/sec",
              "write p50", "write p99", "read p50", "read p99", "frames");
  for (const Config& cfg : configs) {
    RowResult row = RunConfig(cfg);
    all_ok = all_ok && row.ok && row.ops_per_sec > 0;
    std::printf("%-16s %10.1f %10.3fms %10.3fms %10.3fms %10.3fms %10llu\n",
                cfg.name, row.ops_per_sec, row.write_p50_ms, row.write_p99_ms,
                row.read_p50_ms, row.read_p99_ms,
                static_cast<unsigned long long>(row.counters.frames_sent));
    json.Row(cfg.name);
    json.Metric("ops_per_sec", row.ops_per_sec);
    json.Metric("write_p50_ms", row.write_p50_ms);
    json.Metric("write_p99_ms", row.write_p99_ms);
    json.Metric("read_p50_ms", row.read_p50_ms);
    json.Metric("read_p99_ms", row.read_p99_ms);
    // The full wire-counter set (rt::TransportCounters): on a healthy
    // run the drop/corruption/overflow counters must read zero.
    json.Metric("frames_sent", static_cast<double>(row.counters.frames_sent));
    json.Metric("frames_received",
                static_cast<double>(row.counters.frames_received));
    json.Metric("frames_dropped",
                static_cast<double>(row.counters.frames_dropped));
    json.Metric("decode_failures",
                static_cast<double>(row.counters.decode_failures));
    json.Metric("send_queue_overflows",
                static_cast<double>(row.counters.send_queue_overflows));
    json.Metric("writev_calls",
                static_cast<double>(row.counters.writev_calls));
  }

  // Raw flood rows: batched+pooled vs one-frame-per-syscall+malloc.
  struct FloodConfig {
    const char* name;
    uint32_t num_nodes;
    uint64_t msgs_per_edge;
  };
  std::vector<FloodConfig> floods;
  if (quick) {
    floods.push_back({"n3_flood_quick", 3, 50000});
  } else {
    floods.push_back({"n3_flood", 3, 100000});
    floods.push_back({"n5_flood", 5, 100000});
  }
  // Best-of-2 per configuration: a burst lasts well under a second, so a
  // single stray scheduler hiccup can swing either side of the ratio.
  const auto best_of = [](FloodStats a, FloodStats b) {
    if (!a.ok) return b;
    if (!b.ok) return a;
    return a.msgs_per_sec >= b.msgs_per_sec ? a : b;
  };
  std::printf("\n%-16s %14s %14s %9s %10s %9s\n", "config", "batched m/s",
              "unbatched m/s", "speedup", "frames/wv", "pool hit");
  for (const FloodConfig& cfg : floods) {
    const FloodStats batched = best_of(
        RunFlood(cfg.num_nodes, cfg.msgs_per_edge,
                 /*max_batch_frames=*/64, /*pool_buffers=*/true),
        RunFlood(cfg.num_nodes, cfg.msgs_per_edge,
                 /*max_batch_frames=*/64, /*pool_buffers=*/true));
    const FloodStats unbatched = best_of(
        RunFlood(cfg.num_nodes, cfg.msgs_per_edge,
                 /*max_batch_frames=*/1, /*pool_buffers=*/false),
        RunFlood(cfg.num_nodes, cfg.msgs_per_edge,
                 /*max_batch_frames=*/1, /*pool_buffers=*/false));
    all_ok = all_ok && batched.ok && unbatched.ok;
    const double speedup = unbatched.msgs_per_sec > 0
                               ? batched.msgs_per_sec / unbatched.msgs_per_sec
                               : 0;
    std::printf("%-16s %14.0f %14.0f %8.2fx %10.1f %8.1f%%\n", cfg.name,
                batched.msgs_per_sec, unbatched.msgs_per_sec, speedup,
                batched.realized_batch, batched.pool_hit_rate * 100);
    json.Row(cfg.name);
    json.Metric("msgs_per_sec_batched", batched.msgs_per_sec);
    json.Metric("msgs_per_sec_unbatched", unbatched.msgs_per_sec);
    // The gated ratio (see check_regression.py classify()): both sides
    // ran on this machine seconds apart, so the ratio cancels the host.
    json.Metric("batch_speedup", speedup);
    json.Metric("realized_batch_frames_per_writev", batched.realized_batch);
    json.Metric("pool_hit_rate", batched.pool_hit_rate);
    json.Metric("failed_sends", static_cast<double>(batched.failed +
                                                    unbatched.failed));
  }

  if (!json_path.empty() && !json.WriteFile(json_path)) all_ok = false;
  if (!all_ok) {
    std::fprintf(stderr, "transport_throughput: FAILED\n");
    return 1;
  }
  std::printf("transport_throughput: OK\n");
  return 0;
}

}  // namespace
}  // namespace dcp

int main(int argc, char** argv) { return dcp::Run(argc, argv); }
