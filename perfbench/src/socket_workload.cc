// Socket workloads: a closed loop of K asynchronous operations over a
// sharded five-node loopback-TCP cluster (harness::SocketCluster).
//
// Thread budget: this process runs the generator (the main thread, which
// only posts the first K operations and then waits), the transport's I/O
// thread and two pinned node workers. Each completion posts the next
// operation itself, from the worker that ran it, so no thread exists per
// client. Retries of kConflict/kStaleData go through the coordinator
// runtime's timer; nothing sleeps on a caller's thread.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "harness/socket_cluster.h"
#include "protocol/operations.h"
#include "storage/versioned_object.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace dcp::perfbench {
namespace {

using harness::SocketCluster;
using protocol::ReadOutcome;
using protocol::WriteOutcome;
using storage::ObjectId;
using storage::Update;
using storage::Version;

constexpr uint32_t kNodes = 5;
constexpr uint32_t kReplicationFactor = 3;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kPreloadInflight = 16;
/// Attempts per operation before it counts as failed.
constexpr uint32_t kMaxAttempts = 200;
/// Propagation must drain within this much wall time after the last op.
constexpr double kDrainBudgetS = 20;
/// An operation not finished this long after the previous completion
/// means the cluster wedged; the round fails instead of hanging.
constexpr double kStallBudgetS = 30;

struct SocketSpec {
  uint32_t num_objects = 0;
  uint32_t object_bytes = 0;
  double zipf_theta = 0;        ///< 0 = uniform keys.
  double read_fraction = 0;
  double partial_fraction = 0;  ///< Share of writes that are patches.
  uint32_t patch_bytes = 0;
  uint32_t inflight = 0;        ///< K, the closed-loop window.
  uint32_t ops = 0;             ///< Timed operations per round.
};

SocketSpec SpecFor(const std::string& workload) {
  SocketSpec s;
  if (workload == "sock_partial_hot") {
    s.num_objects = 4096;
    s.object_bytes = 4096;
    s.zipf_theta = 0.8;
    s.read_fraction = 0.5;
    s.partial_fraction = 0.9;
    s.patch_bytes = 16;
    s.inflight = 8;
    s.ops = 8000;
  } else {  // sock_bulk_read
    s.num_objects = 256;
    s.object_bytes = 8192;
    s.zipf_theta = 0;
    s.read_fraction = 0.9;
    s.partial_fraction = 0;
    s.inflight = 4;
    s.ops = 20000;
  }
  return s;
}

/// One generated client operation. The coordinator is the
/// `home_index`-th member of the object's replica set.
struct OpSpec {
  ObjectId object = 0;
  uint32_t home_index = 0;
  bool read = false;
  Update update;
};

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t w = rng.Next64();
    for (size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
  }
  return out;
}

std::vector<OpSpec> GeneratePreload(const SocketSpec& spec, uint64_t seed) {
  Rng rng(Mix(seed ^ 0x5052454c4f4144ULL));
  std::vector<OpSpec> ops(spec.num_objects);
  for (ObjectId o = 0; o < spec.num_objects; ++o) {
    ops[o].object = o;
    ops[o].home_index =
        static_cast<uint32_t>(rng.Uniform(kReplicationFactor));
    ops[o].update = Update::Total(RandomBytes(rng, spec.object_bytes));
  }
  return ops;
}

std::vector<OpSpec> GenerateOps(const SocketSpec& spec, uint64_t seed) {
  Rng rng(Mix(seed ^ 0x4f5053ULL));
  std::unique_ptr<ZipfianGenerator> zipf;
  if (spec.zipf_theta > 0) {
    zipf = std::make_unique<ZipfianGenerator>(spec.num_objects,
                                              spec.zipf_theta);
  }
  // Zipfian rank r maps to a seeded permutation of object ids, so the hot
  // keys spread over all home sets instead of the lowest ids.
  std::vector<ObjectId> perm(spec.num_objects);
  for (ObjectId o = 0; o < spec.num_objects; ++o) perm[o] = o;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  }
  std::vector<OpSpec> ops(spec.ops);
  for (OpSpec& op : ops) {
    op.object = zipf ? perm[zipf->Sample(rng)]
                     : static_cast<ObjectId>(rng.Uniform(spec.num_objects));
    op.home_index = static_cast<uint32_t>(rng.Uniform(kReplicationFactor));
    op.read = rng.Bernoulli(spec.read_fraction);
    if (op.read) continue;
    if (rng.Bernoulli(spec.partial_fraction)) {
      op.update = Update::Partial(
          rng.Uniform(spec.object_bytes - spec.patch_bytes + 1),
          RandomBytes(rng, spec.patch_bytes));
    } else {
      op.update = Update::Total(RandomBytes(rng, spec.object_bytes));
    }
  }
  return ops;
}

/// What the client saw of one operation. Times are ms on the engine's
/// clock: post = the generator's Schedule call, start = the posted
/// closure begins on the coordinator, done = the final attempt returned.
struct OpRecord {
  double t_post = 0;
  double t_start = 0;
  double t_done = 0;
  uint32_t attempts = 0;
  uint32_t stale_retries = 0;
  bool ok = false;
  Version version = 0;
  uint64_t read_hash = 0;
  std::vector<uint8_t> kept_read;  ///< Full bytes of the self-test read.
  std::string error;
};

/// Drives a list of operations through the cluster with a window of K in
/// flight. All callbacks run on node execution contexts; records are
/// written by exactly one thread at a time (the op's coordinator), and
/// the main thread reads them only after the last completion.
class Engine {
 public:
  Engine(SocketCluster* cluster, const std::vector<OpSpec>* ops,
         uint32_t inflight, uint64_t seed, size_t keep_read)
      : cluster_(cluster),
        ops_(ops),
        inflight_(inflight),
        seed_(seed),
        keep_read_(keep_read),
        rec_(ops->size()),
        t0_(Clock::now()) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Blocks until every operation finished (or the cluster stalled);
  /// samples the process thread count meanwhile. Returns false on stall.
  bool Run() {
    const size_t first = std::min<size_t>(inflight_, ops_->size());
    next_.store(first);
    for (size_t i = 0; i < first; ++i) Post(i);
    std::unique_lock<std::mutex> lock(mu_);
    size_t last_completed = 0;
    Clock::time_point last_progress = Clock::now();
    while (!all_done_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      max_threads_ = std::max(max_threads_, ThreadCount());
      const size_t done = completed_.load();
      if (done != last_completed) {
        last_completed = done;
        last_progress = Clock::now();
      } else if (SecondsSince(last_progress) > kStallBudgetS) {
        return false;
      }
    }
    return true;
  }

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }
  const std::vector<OpRecord>& records() const { return rec_; }
  uint32_t max_threads() const { return max_threads_; }
  NodeId Coordinator(size_t i) const {
    const OpSpec& op = (*ops_)[i];
    return cluster_->table()->placement(op.object).replicas.NthMember(
        op.home_index);
  }

 private:
  void Post(size_t i) {
    rec_[i].t_post = NowMs();
    cluster_->transport().runtime(Coordinator(i))->Schedule(0, [this, i] {
      rec_[i].t_start = NowMs();
      Attempt(i);
    });
  }

  void Attempt(size_t i) {
    const OpSpec& op = (*ops_)[i];
    protocol::ReplicaNode* node = &cluster_->node(Coordinator(i));
    ++rec_[i].attempts;
    if (op.read) {
      protocol::StartRead(node, op.object, /*history=*/nullptr,
                          [this, i](Result<ReadOutcome> r) {
                            if (!r.ok()) return Retry(i, r.status());
                            OpRecord& rec = rec_[i];
                            rec.version = r.value().version;
                            rec.read_hash = HashBytes(r.value().data);
                            if (i == keep_read_) {
                              rec.kept_read = std::move(r).value().data;
                            }
                            Finish(i, true);
                          });
    } else {
      protocol::StartWrite(node, op.object, op.update, protocol::WriteOptions{},
                           /*history=*/nullptr,
                           [this, i](Result<WriteOutcome> r) {
                             if (!r.ok()) return Retry(i, r.status());
                             rec_[i].version = r.value().version;
                             Finish(i, true);
                           });
    }
  }

  /// Backs off on the coordinator's own timer: 0.1 ms per attempt so far
  /// (capped at 2 ms) plus a seeded jitter of up to the same again.
  void Retry(size_t i, const Status& s) {
    OpRecord& rec = rec_[i];
    const bool retryable = s.IsConflict() || s.code() == StatusCode::kStaleData;
    if (!retryable || rec.attempts >= kMaxAttempts) {
      rec.error = s.ToString();
      Finish(i, false);
      return;
    }
    if (s.code() == StatusCode::kStaleData) ++rec.stale_retries;
    const double base = std::min(0.1 * rec.attempts, 2.0);
    const uint64_t h = Mix(seed_ ^ (uint64_t{i} << 16) ^ rec.attempts);
    const double jitter =
        base * static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
    cluster_->transport().runtime(Coordinator(i))->Schedule(
        base + jitter, [this, i] { Attempt(i); });
  }

  void Finish(size_t i, bool ok) {
    rec_[i].ok = ok;
    rec_[i].t_done = NowMs();
    const size_t n = next_.fetch_add(1);
    if (n < ops_->size()) Post(n);
    if (completed_.fetch_add(1) + 1 == ops_->size()) {
      std::lock_guard<std::mutex> lock(mu_);
      all_done_ = true;
      cv_.notify_all();
    }
  }

  SocketCluster* cluster_;
  const std::vector<OpSpec>* ops_;
  const uint32_t inflight_;
  const uint64_t seed_;
  const size_t keep_read_;
  std::vector<OpRecord> rec_;
  const Clock::time_point t0_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> completed_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool all_done_ = false;
  uint32_t max_threads_ = 0;
};

/// Runs `fn(node_id, node, runtime)` on every node's execution context
/// and waits for all of them.
template <typename Fn>
void OnEachNode(SocketCluster& cluster, Fn&& fn) {
  std::vector<std::future<void>> done;
  for (NodeId i = 0; i < cluster.num_nodes(); ++i) {
    auto p = std::make_shared<std::promise<void>>();
    done.push_back(p->get_future());
    rt::Runtime* rt = cluster.transport().runtime(i);
    rt->Schedule(0, [&cluster, &fn, i, rt, p] {
      fn(i, cluster.node(i), *rt);
      p->set_value();
    });
  }
  for (auto& f : done) f.wait();
}

Counters SnapshotCounters(SocketCluster& cluster) {
  std::vector<Counters> per_node(cluster.num_nodes());
  OnEachNode(cluster, [&per_node](NodeId i, protocol::ReplicaNode&,
                                  rt::Runtime& rt) {
    AddCounters(rt.metrics(), &per_node[i]);
  });
  Counters total;
  for (const Counters& c : per_node) {
    for (const auto& [k, v] : c) total[k] += v;
  }
  return total;
}

/// One replica's propagation state, read on its node's context.
struct ReplicaView {
  ObjectId object = 0;
  NodeId node = 0;
  Version version = 0;
  Version desired = 0;
  bool stale = false;
  bool owes = false;  ///< This node still owes propagation for the object.
  bool locked = false;

  std::string Describe() const {
    return "node " + std::to_string(node) + " v" + std::to_string(version) +
           (stale ? " stale(desired v" + std::to_string(desired) + ")" : "") +
           (owes ? " owes" : "") + (locked ? " locked" : "");
  }
};

std::vector<ReplicaView> ScanReplicas(SocketCluster& cluster) {
  std::vector<std::vector<ReplicaView>> per_node(cluster.num_nodes());
  OnEachNode(cluster, [&per_node](NodeId i, protocol::ReplicaNode& node,
                                  rt::Runtime&) {
    for (ObjectId o : node.HostedObjects()) {
      const storage::ReplicaStore& s = node.store(o);
      per_node[i].push_back({o, i, s.version(), s.desired_version(),
                             s.stale(), !node.pending_propagation(o).Empty(),
                             s.IsLocked()});
    }
  });
  std::vector<ReplicaView> all;
  for (auto& v : per_node) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const ReplicaView& a, const ReplicaView& b) {
              return a.object < b.object;
            });
  return all;
}

uint64_t CountStale(const std::vector<ReplicaView>& views) {
  return static_cast<uint64_t>(
      std::count_if(views.begin(), views.end(),
                    [](const ReplicaView& v) { return v.stale; }));
}

/// Waits until no replica is stale and no node owes propagation.
///
/// A replica can be left stale with no current replica owing it
/// propagation: the source's offer reaches it before the mark-stale
/// commit does, it answers "i-am-current", and the source drops the duty;
/// or the only node holding the duty is itself stale. Nothing in the
/// protocol revisits it until a later write's quorum includes it. The
/// drain hands such an orphan's duty to a current replica through
/// ReplicaNode::AddPropagationTargets and counts it in `*orphans`.
/// Returns an empty string once drained, else the replicas still stuck.
std::string Drain(SocketCluster& cluster, uint64_t* orphans) {
  const Clock::time_point t0 = Clock::now();
  std::set<std::pair<ObjectId, NodeId>> repaired;
  for (;;) {
    const std::vector<ReplicaView> views = ScanReplicas(cluster);
    const bool give_up = SecondsSince(t0) > kDrainBudgetS;
    std::string stuck;
    bool backlog = false;
    for (size_t b = 0, e = 0; b < views.size(); b = e) {
      // `owed`: a current replica owes propagation. A stale replica's own
      // duty waits until it is current itself, so it cannot clear others.
      bool stale = false, owes_any = false, owed = false;
      const ReplicaView* source = nullptr;
      for (e = b; e < views.size() && views[e].object == views[b].object;
           ++e) {
        stale = stale || views[e].stale;
        owes_any = owes_any || views[e].owes;
        owed = owed || (views[e].owes && !views[e].stale);
        if (!views[e].stale &&
            (source == nullptr || views[e].version > source->version)) {
          source = &views[e];
        }
      }
      backlog = backlog || stale || owes_any;
      if (give_up && (stale || owes_any) && stuck.size() < 2000) {
        stuck += "; object " + std::to_string(views[b].object) + ":";
        for (size_t k = b; k < e; ++k) stuck += " [" + views[k].Describe() + "]";
      }
      if (!stale || owed || source == nullptr) continue;
      for (size_t k = b; k < e; ++k) {
        const ReplicaView& v = views[k];
        if (!v.stale || v.desired > source->version) continue;
        if (repaired.insert({v.object, v.node}).second) ++*orphans;
        cluster.transport().runtime(source->node)->Schedule(
            0, [&cluster, source_node = source->node, v] {
              cluster.node(source_node)
                  .AddPropagationTargets(v.object, NodeSet{v.node});
            });
      }
    }
    if (!backlog) return "";
    if (give_up) return "propagation did not drain" + stuck;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// A client read, or a replica as found after the drain: the version it
/// holds and a hash of its contents.
struct Observed {
  ObjectId object = 0;
  Version version = 0;
  uint64_t hash = 0;
  bool replica = false;  ///< Replica state (else a client read).
  size_t op = 0;         ///< Read: its op index.
};

struct Committed {
  ObjectId object = 0;
  Version version = 0;
  const Update* update = nullptr;
};

/// The output check: committed write versions are unique and gap-free
/// per object; every read and every replica equals the replay of the
/// committed writes up to its version; after the drain a write quorum of
/// each object's replicas holds its newest committed version.
std::vector<std::string> CheckOutputs(std::vector<Committed> writes,
                                      std::vector<Observed> seen,
                                      const std::vector<uint8_t>& initial,
                                      uint32_t num_objects) {
  std::vector<std::string> errors;
  auto fail = [&errors](std::string e) {
    if (errors.size() < 10) errors.push_back(std::move(e));
  };
  auto by_version = [](const auto& a, const auto& b) {
    return a.object != b.object ? a.object < b.object : a.version < b.version;
  };
  std::sort(writes.begin(), writes.end(), by_version);
  std::sort(seen.begin(), seen.end(), by_version);
  size_t w = 0, s = 0;
  for (ObjectId o = 0; o < num_objects; ++o) {
    storage::VersionedObject replay(initial);
    uint64_t hash = HashBytes(replay.data());
    Version v = 0;
    uint32_t at_max = 0;
    Version max_written = 0;
    for (size_t k = w; k < writes.size() && writes[k].object == o; ++k) {
      max_written = writes[k].version;
    }
    for (; s < seen.size() && seen[s].object == o; ++s) {
      const Observed& x = seen[s];
      while (v < x.version && w < writes.size() && writes[w].object == o) {
        if (writes[w].version != v + 1) {
          fail("object " + std::to_string(o) + ": committed versions " +
               (writes[w].version == v ? "repeat " : "skip to ") +
               std::to_string(writes[w].version) + " after " +
               std::to_string(v));
          return errors;
        }
        replay.Apply(*writes[w].update);
        ++v;
        ++w;
        hash = HashBytes(replay.data());
      }
      if (x.version != v) {
        fail("object " + std::to_string(o) + ": observed version " +
             std::to_string(x.version) + " was never committed");
        continue;
      }
      if (x.hash != hash) {
        fail(std::string(x.replica ? "replica" : "read (op " +
                                                    std::to_string(x.op) +
                                                    ")") +
             " of object " + std::to_string(o) + " at version " +
             std::to_string(v) + " differs from the replayed writes");
      }
      if (x.replica && x.version == max_written) ++at_max;
    }
    // Versions past every observation must still be unique and gap-free.
    for (; w < writes.size() && writes[w].object == o; ++w, ++v) {
      if (writes[w].version != v + 1) {
        fail("object " + std::to_string(o) + ": committed version " +
             std::to_string(writes[w].version) + " repeats or skips");
        return errors;
      }
    }
    if (at_max < kReplicationFactor / 2 + 1) {
      fail("object " + std::to_string(o) + ": only " +
           std::to_string(at_max) + " replicas hold the newest version " +
           std::to_string(max_written) + " after the drain");
    }
  }
  return errors;
}

}  // namespace

bool IsSocketWorkload(const std::string& workload) {
  return workload == "sock_partial_hot" || workload == "sock_bulk_read";
}

RoundResult RunSocketRound(const std::string& workload, uint64_t seed,
                           bool traced) {
  const SocketSpec spec = SpecFor(workload);
  RoundResult result;
  const std::vector<OpSpec> preload = GeneratePreload(spec, seed);
  const std::vector<OpSpec> ops = GenerateOps(spec, seed);
  size_t keep_read = 0;
  while (keep_read < ops.size() && !ops[keep_read].read) ++keep_read;

  harness::SocketClusterOptions options;
  options.num_nodes = kNodes;
  options.num_objects = spec.num_objects;
  options.sharded = true;
  options.replication_factor = kReplicationFactor;
  options.placement_seed = Mix(seed ^ 0x504c41434500ULL);
  options.coterie = protocol::CoterieKind::kMajority;
  options.initial_value.assign(spec.object_bytes, 0);
  options.num_workers = kWorkers;

  const Clock::time_point tap_t0 = Clock::now();
  auto tap = std::make_shared<SendTap>([tap_t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - tap_t0)
        .count();
  });
  std::unique_ptr<Engine> load, timed;

  // --- set-up: construction, Start(), one total write per object. ---
  const Clock::time_point setup_t0 = Clock::now();
  auto cluster = std::make_unique<SocketCluster>(options);
  if (traced) {
    cluster->transport().set_send_tap(
        [tap](const net::Message& m) { tap->Observe(m); });
  }
  Status started = cluster->Start();
  if (!started.ok()) {
    result.errors.push_back("cluster start failed: " + started.ToString());
    return result;
  }
  load = std::make_unique<Engine>(cluster.get(), &preload, kPreloadInflight,
                                  seed, preload.size());
  uint64_t preload_orphans = 0;
  std::string stuck = load->Run() ? Drain(*cluster, &preload_orphans)
                                  : "preload operations stalled";
  if (!stuck.empty()) {
    cluster->Stop();
    result.errors.push_back("preload: " + stuck);
    return result;
  }
  for (const OpRecord& r : load->records()) {
    if (!r.ok) {
      cluster->Stop();
      result.errors.push_back("preload write failed: " + r.error);
      return result;
    }
  }
  result.setup_s = SecondsSince(setup_t0);

  // --- timed phase ---
  Counters before;
  if (traced) {
    before = SnapshotCounters(*cluster);
    OnEachNode(*cluster, [](NodeId, protocol::ReplicaNode&, rt::Runtime& rt) {
      rt.tracer().set_enabled(true);
    });
    tap->on.store(true);
  }
  const rt::TransportCounters wire_before = cluster->transport().counters();
  const uint64_t pool_hits0 = cluster->transport().buffer_pool().hits();
  const uint64_t pool_misses0 = cluster->transport().buffer_pool().misses();

  timed = std::make_unique<Engine>(cluster.get(), &ops, spec.inflight, seed,
                                   keep_read);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point timed_t0 = Clock::now();
  const bool finished = timed->Run();
  result.timed_s = SecondsSince(timed_t0);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  result.max_threads = timed->max_threads();
  if (!finished) {
    cluster->Stop();
    result.errors.push_back("timed operations stalled");
    return result;
  }

  // --- drain, then read every replica after Stop() ---
  const uint64_t stale_end = traced ? CountStale(ScanReplicas(*cluster)) : 0;
  uint64_t orphans = 0;
  stuck = Drain(*cluster, &orphans);
  if (!stuck.empty()) result.errors.push_back(stuck);
  result.orphaned_replicas = preload_orphans + orphans;
  if (result.orphaned_replicas > kMaxOrphanedReplicas) {
    result.errors.push_back(
        std::to_string(result.orphaned_replicas) +
        " stale replicas were left with no current replica owing them "
        "propagation (the drain repaired them)");
  }
  Counters after;
  if (traced) {
    tap->on.store(false);
    after = SnapshotCounters(*cluster);
  }
  const rt::TransportCounters wire_after = cluster->transport().counters();
  const uint64_t pool_hits = cluster->transport().buffer_pool().hits() -
                             pool_hits0;
  const uint64_t pool_misses = cluster->transport().buffer_pool().misses() -
                               pool_misses0;
  cluster->Stop();

  const rt::TransportCounters wire = cluster->transport().counters();
  if (wire.frames_dropped + wire.decode_failures + wire.send_queue_overflows !=
      0) {
    result.errors.push_back(
        "transport lost frames: dropped=" +
        std::to_string(wire.frames_dropped) +
        " decode_failures=" + std::to_string(wire.decode_failures) +
        " overflows=" + std::to_string(wire.send_queue_overflows));
  }

  // --- outcomes ---
  const std::vector<OpRecord>& recs = timed->records();
  uint64_t retries = 0, stale_retries = 0;
  std::vector<double> mailbox_ms;
  std::vector<Committed> committed;
  std::vector<Observed> seen;
  for (size_t i = 0; i < preload.size(); ++i) {
    committed.push_back({preload[i].object, load->records()[i].version,
                         &preload[i].update});
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = recs[i];
    const OpSpec& op = ops[i];
    retries += r.attempts - 1;
    mailbox_ms.push_back(r.t_start - r.t_post);
    if (op.read) {
      ++result.reads_attempted;
    } else {
      ++result.writes_attempted;
      stale_retries += r.stale_retries;
    }
    if (!r.ok) {
      ++result.failed;
      if (result.failed <= 3) {
        result.errors.push_back("op " + std::to_string(i) +
                                " failed after " +
                                std::to_string(r.attempts) +
                                " attempts: " + r.error);
      }
      continue;
    }
    const double latency = r.t_done - r.t_post;
    if (op.read) {
      ++result.reads_committed;
      result.read_ms.push_back(latency);
      seen.push_back({op.object, r.version, r.read_hash, false, i});
    } else {
      ++result.writes_committed;
      result.write_ms.push_back(latency);
      committed.push_back({op.object, r.version, &op.update});
    }
  }

  uint64_t log_entries = 0, replicas = 0;
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    protocol::ReplicaNode& node = cluster->node(n);
    for (ObjectId o : node.HostedObjects()) {
      const storage::ReplicaStore& store = node.store(o);
      if (store.stale() || !node.pending_propagation(o).Empty()) {
        result.errors.push_back("replica of object " + std::to_string(o) +
                                " on node " + std::to_string(n) +
                                " still stale after the drain");
      }
      seen.push_back({o, store.version(), HashBytes(store.object().data()),
                      true, 0});
      log_entries += store.object().LogSize();
      ++replicas;
    }
  }

  std::vector<std::string> errors =
      CheckOutputs(committed, seen, options.initial_value, spec.num_objects);
  result.errors.insert(result.errors.end(), errors.begin(), errors.end());

  // Self-test: the same check must reject one flipped byte in one read.
  if (errors.empty() && keep_read < ops.size() && recs[keep_read].ok) {
    std::vector<uint8_t> corrupt = recs[keep_read].kept_read;
    corrupt[corrupt.size() / 2] ^= 0x01;
    for (Observed& x : seen) {
      if (!x.replica && x.op == keep_read) x.hash = HashBytes(corrupt);
    }
    if (CheckOutputs(committed, seen, options.initial_value,
                     spec.num_objects)
            .empty()) {
      result.errors.push_back(
          "self-test: a read with one flipped byte passed the check");
    }
  }

  if (!traced) return result;

  // --- per-layer metrics (traced rounds) ---
  const double n_ops = static_cast<double>(ops.size());
  const double n_writes =
      std::max<double>(1, static_cast<double>(result.writes_committed));
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  std::map<std::string, double>& L = result.layer;
  AddCounterMetrics(before, after, n_ops, n_writes, result.cpu_s, &L);
  L["harness.retries_per_op"] = static_cast<double>(retries) / n_ops;
  L["harness.stale_retries_per_write"] =
      static_cast<double>(stale_retries) / n_writes;
  double epoch_changes = 0;
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    for (ObjectId o : cluster->node(n).HostedObjects()) {
      epoch_changes += static_cast<double>(
          cluster->node(n).store(o).epoch_number());
    }
  }
  L["protocol.epoch_changes"] = epoch_changes / kReplicationFactor;
  const double frames =
      static_cast<double>(wire_after.frames_sent - wire_before.frames_sent);
  L["runtime.frames_per_op"] = frames / n_ops;
  L["runtime.frames_per_writev"] =
      ratio(frames, static_cast<double>(wire_after.writev_calls -
                                        wire_before.writev_calls));
  L["runtime.mailbox_wait_ms_p50"] = Percentile(&mailbox_ms, 50);
  L["runtime.mailbox_wait_ms_p99"] = Percentile(&mailbox_ms, 99);
  L["runtime.pool_hit_ratio"] =
      ratio(static_cast<double>(pool_hits),
            static_cast<double>(pool_hits + pool_misses));
  L["storage.log_entries_per_replica"] =
      ratio(static_cast<double>(log_entries), static_cast<double>(replicas));
  L["storage.stale_replicas_end"] = static_cast<double>(stale_end);
  L["storage.orphaned_stale_replicas"] = static_cast<double>(orphans);
  // No durable store and no simulator on the socket backend.
  for (const char* name :
       {"store.wal_records_per_op", "store.wal_bytes_per_op",
        "store.syncs_per_op", "store.batch_records_p50",
        "store.checkpoint_bytes_per_op",
        "store.recovered_records_per_recovery", "sim.events_per_op"}) {
    L[name] = 0;
  }

  RoundTracker tracker;
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    tracker.NewStream();
    tracker.Feed(cluster->transport().runtime(n)->tracer().events());
  }
  AddTraceMetrics(tracker, *tap, n_ops, &L);

  // The benchmark's own spans around its calls into the stack.
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = recs[i];
    const uint32_t pid = timed->Coordinator(i);
    AddSpan(ops[i].read ? "read" : "write", pid, i, r.t_post, r.t_done,
            &result.spans);
    AddSpan("mailbox", pid, i, r.t_post, r.t_start, &result.spans);
    AddSpan("protocol", pid, i, r.t_start, r.t_done, &result.spans);
  }
  return result;
}

}  // namespace dcp::perfbench
