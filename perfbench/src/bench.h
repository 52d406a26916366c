// Shared types of the dcp end-to-end benchmark (see perfbench/README.md).
//
// One process runs one workload: a sequence of rounds, each of which
// builds a fresh deployment, preloads it, times a fixed number of
// operations, drains, checks every output and tears the deployment down.
// main.cc runs a fixed number of rounds and reports figures over all of
// them.

#ifndef DCP_PERFBENCH_BENCH_H_
#define DCP_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcp::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Everything one round measured. End-to-end fields are filled on every
/// round; `layer` only on traced rounds.
struct RoundResult {
  double setup_s = 0;   ///< First construction call to first timed op.
  double timed_s = 0;   ///< Host seconds of the timed phase.
  double cpu_s = 0;     ///< Process CPU (user + sys) over the timed phase.
  /// How much slower than the reference host this host ran the reference
  /// work around the round (main.cc); the round's host times are divided
  /// by it. Simulated times are not.
  double host_factor = 1;
  uint64_t writes_attempted = 0;
  uint64_t writes_committed = 0;
  uint64_t reads_attempted = 0;
  uint64_t reads_committed = 0;
  /// Operations that failed in a way the workload does not expect (a
  /// socket op that exhausted its retry cap; a sim op that returned an
  /// error other than a fault-model refusal).
  uint64_t failed = 0;
  /// Latencies of committed operations: wall ms on sockets, simulated ms
  /// on the simulator.
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  uint32_t max_threads = 0;  ///< Highest thread count seen while timed.
  /// Stale replicas no current replica owed propagation to: on sockets,
  /// those the drain had to repair; on the simulator, those left at
  /// quiescence. A round fails above kMaxOrphanedReplicas.
  uint64_t orphaned_replicas = 0;
  /// Correctness failures; empty means every check passed.
  std::vector<std::string> errors;
  /// Per-layer metrics (traced rounds only).
  std::map<std::string, double> layer;
  /// The benchmark's own spans (traced rounds only), written at exit.
  std::vector<obs::TraceEvent> spans;

  uint64_t committed() const { return writes_committed + reads_committed; }
  uint64_t attempted() const { return writes_attempted + reads_attempted; }
};

/// The protocol can leave a stale replica that nothing will propagate to
/// (an offer answered "i-am-current" before the mark-stale commit landed,
/// or a duty held only by a stale node): about once per 30 socket rounds,
/// and at most 3 in one of about 40 simulator rounds under site failures.
/// A round with more than this many has lost propagation duties on a
/// larger scale, and fails the convergence check.
constexpr uint64_t kMaxOrphanedReplicas = 8;

/// Runs one round of a socket workload ("sock_partial_hot" or
/// "sock_bulk_read"). `seed` determines every generated input.
RoundResult RunSocketRound(const std::string& workload, uint64_t seed,
                           bool traced);

/// Runs one round of "sim_churn_durable".
RoundResult RunSimRound(uint64_t seed, bool traced);

bool IsSocketWorkload(const std::string& workload);
bool IsSimWorkload(const std::string& workload);

// --- measurement helpers (report.cc) -----------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `v`; sorts `v`.
double Percentile(std::vector<double>* v, double p);
double Median(std::vector<double> v);
/// 64-bit hash of a byte string (read contents are compared by hash).
uint64_t HashBytes(const uint8_t* data, size_t len);
inline uint64_t HashBytes(const std::vector<uint8_t>& v) {
  return HashBytes(v.data(), v.size());
}
/// splitmix64 step: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t x);
/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// Current thread count and peak resident set size of this process.
uint32_t ThreadCount();
double PeakRssMb();
/// CPUs this process may run on (what `nproc` prints).
uint32_t AvailableCpus();

// --- host-speed calibration (calibrate.cc) -----------------------------

/// Host seconds a fixed piece of reference work (sorting, hash tables, an
/// event loop, pointer chasing) takes now. It uses none of the code under
/// test, so its time moves with the host's speed only.
double CalibrationSeconds();

/// Registry counters by name, summed over registries; per-node names
/// ("node.<id>.x") fold into one ("node.x").
using Counters = std::map<std::string, double>;
void AddCounters(const obs::MetricsRegistry& registry, Counters* out);

/// Puts the per-layer metrics both backends derive from registry counters
/// into `layer`: rpcs, lock conflicts, heavy operations, 2PC aborts,
/// propagations, epoch checks, rpc timeouts and failures, and CPU per op.
/// `before`/`after` are snapshots around the timed phase; `n_ops` counts
/// attempted operations, `n_writes` committed writes.
void AddCounterMetrics(const Counters& before, const Counters& after,
                       double n_ops, double n_writes, double cpu_s,
                       std::map<std::string, double>* layer);

/// Appends one benchmark span (a begin and an end event, times in ms) to
/// `spans`, for the Chrome trace a traced run writes.
void AddSpan(const char* name, uint32_t pid, uint64_t id, double begin_ms,
             double end_ms, std::vector<obs::TraceEvent>* spans);

// --- trace analysis (trace_analysis.cc) --------------------------------

/// Rebuilds quorum-round durations from the protocol tracer's "rpc"
/// spans. A round is one multicast: a run of consecutive rpc-begin events
/// of one type from one caller; it lasts from its first begin to its last
/// end. Feed events in emission order; a tracker may be fed in chunks.
class RoundTracker {
 public:
  void Feed(const std::vector<obs::TraceEvent>& events);
  /// Starts a new event stream (another node's tracer).
  void NewStream() { prev_was_begin_ = false; }
  /// Round durations by request type ("lock", "2pc-prepare", ...).
  const std::map<std::string, std::vector<double>>& rounds() const {
    return rounds_;
  }

 private:
  struct Group {
    std::string type;
    double begin = 0;
    double end = 0;
    uint32_t open = 0;
  };
  std::map<uint64_t, size_t> span_group_;  ///< span id -> group slot.
  std::vector<Group> groups_;
  std::vector<size_t> free_groups_;
  bool prev_was_begin_ = false;
  uint32_t prev_pid_ = 0;
  std::string prev_type_;
  size_t prev_group_ = 0;
  std::map<std::string, std::vector<double>> rounds_;
};

/// Request-to-reply matching over send-tap records: each request is keyed
/// by (caller, rpc id) and paired with the reply the callee sends back.
struct TapRecord {
  double t_ms = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t rpc_id = 0;
  bool request = false;
  bool response = false;
};

/// Send-tap recorder for traced rounds: message counts, and for messages
/// between two nodes (self-sends bypass the wire) their frame bytes and
/// the cost of the public codec re-run on them; plus a record per message
/// for request/reply matching. Observe() may be called from any thread;
/// the fields are read once the tap is off and the senders are stopped.
struct SendTap {
  /// `now_ms` stamps each record: wall ms on sockets, simulated ms on the
  /// simulator.
  explicit SendTap(std::function<double()> now_ms)
      : now_ms(std::move(now_ms)) {}
  void Observe(const net::Message& m);

  std::function<double()> now_ms;
  std::atomic<bool> on{false};
  std::mutex mu;
  std::vector<TapRecord> records;
  uint64_t msgs = 0;
  uint64_t wire_msgs = 0;
  uint64_t wire_bytes = 0;
  double encode_us = 0;
  double decode_us = 0;
};

/// Puts the per-layer metrics derived from quorum rounds and the send tap
/// into `layer`: protocol.*_round_ms_p50, net.msgs_per_op,
/// net.rpc_rtt_ms_p50/p99 (request send to reply send, matched by caller
/// and rpc id), runtime.wire_bytes_per_op and encode/decode_us_per_msg.
void AddTraceMetrics(const RoundTracker& tracker, const SendTap& tap,
                     double n_ops, std::map<std::string, double>* layer);

}  // namespace dcp::perfbench

#endif  // DCP_PERFBENCH_BENCH_H_
