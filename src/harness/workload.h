#ifndef DCP_HARNESS_WORKLOAD_H_
#define DCP_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/client_history.h"
#include "protocol/cluster.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace dcp::harness {

/// Which protocol stack the workload drives.
enum class Stack {
  kDynamicCoterie,   ///< The paper's protocol (whatever rule the cluster has).
  kStatic,           ///< baseline::StartStaticWrite/Read (total writes).
  kDynamicVoting,    ///< baseline::StartDynamicVoting* (Jajodia-Mutchler).
  kAccessibleCopies, ///< baseline::StartAccessible* (read-one/write-all).
};

/// An open-loop client population: operations arrive as a Poisson
/// process; each picks a live coordinator uniformly, performs a read or
/// a (partial) write on a random object, and records latency/outcome.
/// No retries — the success rate *is* the availability the client sees.
///
/// Outcomes live only in the cluster's metrics registry, per kind
/// ("write" or "read"): counters "workload.<kind>.{attempted,committed,
/// failed,timed_out}" and the histogram "workload.<kind>.latency" of
/// committed ops' simulated latency. One driver per cluster — a second
/// driver would share (and add to) the same names.
class WorkloadDriver {
 public:
  struct Options {
    double arrival_rate = 0.01;  ///< Operations per unit of sim time.
    double write_fraction = 0.5;
    uint64_t seed = 2;
    uint64_t object_size = 32;  ///< Partial writes patch 1 byte in this.
    Stack stack = Stack::kDynamicCoterie;

    /// How operations pick their target object. kUniform (the default)
    /// preserves the historical single-draw RNG stream byte-for-byte;
    /// kZipfian skews accesses toward low object ids (hot keys) with
    /// YCSB's 1/rank^theta popularity — the interesting regime for a
    /// sharded cluster, where hot objects concentrate load on a few home
    /// sets.
    enum class KeyDistribution { kUniform, kZipfian };
    KeyDistribution key_distribution = KeyDistribution::kUniform;
    double zipfian_theta = 0.99;  ///< Skew; used only by kZipfian.

    /// When non-null, every issued operation is recorded as a
    /// client-observable op (analysis/client_history.h): invocation at
    /// issue time, settlement when the response arrives. Ops still in
    /// flight when the run ends stay open-interval, as do indefinite
    /// failures (timeouts, unreachable coordinators). Recording draws no
    /// randomness and schedules nothing, so attaching a recorder never
    /// perturbs a seeded run. The recorder must outlive the simulation.
    analysis::ClientHistory* client_history = nullptr;

    /// When > 0, an operation still unresolved after this much sim time
    /// is abandoned by the client: counted in workload.<kind>.timed_out and
    /// recorded open-interval (possibly committed — the checker treats it
    /// as concurrent with everything after its invocation). A response
    /// arriving after abandonment is ignored; the client never saw it.
    /// 0 disables (no extra events are scheduled).
    double op_timeout = 0;
  };

  /// Starts issuing operations immediately; runs until destroyed/stopped.
  WorkloadDriver(protocol::Cluster* cluster, Options options);
  ~WorkloadDriver() { Stop(); }
  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Stops issuing. Already-queued arrival events (and completions of
  /// in-flight operations) become stat no-ops — calling Stop() before any
  /// queued event has fired neutralizes the whole schedule. History
  /// recording still settles in-flight ops after Stop(): the attached
  /// ClientHistory and the cluster outlive the driver by contract.
  void Stop() {
    if (state_) state_->stopped = true;
  }

 private:
  /// `stopped` is a plain bool on purpose: the simulator is
  /// single-threaded, so queued arrival events and Stop() always run on
  /// the same thread and a flag check is race-free. If the kernel ever
  /// grows real threads, this must become atomic.
  struct Shared {
    bool stopped = false;
  };

  /// Per-operation shared state: which client session the op occupies and
  /// whether its outcome is settled (response recorded OR abandoned).
  /// Both the completion callback and the optional timeout event hold it;
  /// whoever fires second sees `settled` and backs off.
  struct OpState {
    uint64_t client = 0;
    bool settled = false;
  };

  /// Cached registry handles for one kind's "workload.<kind>.*" metrics,
  /// so the client-observed view lands in metrics exports alongside the
  /// protocol counters.
  struct OpCounters {
    obs::Counter* attempted;
    obs::Counter* committed;
    obs::Counter* failed;
    obs::Counter* timed_out;
    obs::Histogram* latency;
  };

  void ArmNext();
  void Issue();
  NodeId PickLiveCoordinator();
  storage::ObjectId PickObject();

  /// Schedules the client-side give-up event for an in-flight op (no-op
  /// when Options::op_timeout is 0).
  void ArmTimeout(std::shared_ptr<OpState> op, bool is_write, uint64_t op_id,
                  uint64_t span_id, NodeId coordinator);

  /// Client sessions are slots: each in-flight op occupies the
  /// lowest-numbered free slot and releases it on settlement, keeping one
  /// session's ops sequential (a session guarantee prerequisite) without
  /// drawing randomness.
  uint64_t AcquireClient();
  void FreeClient(uint64_t client);

  protocol::Cluster* cluster_;
  Options options_;
  Rng rng_;
  /// Constructed only for kZipfian (the normalizer is O(num_objects)).
  std::unique_ptr<ZipfianGenerator> zipf_;
  std::shared_ptr<Shared> state_;
  OpCounters write_counters_;
  OpCounters read_counters_;
  uint64_t counter_ = 0;
  uint64_t span_seq_ = 0;  ///< Trace span correlation ids ("client" cat).
  std::vector<bool> client_busy_;
};

}  // namespace dcp::harness

#endif  // DCP_HARNESS_WORKLOAD_H_
