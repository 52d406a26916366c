#ifndef DCP_NET_NETWORK_H_
#define DCP_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/message.h"
#include "runtime/transport.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/node_set.h"
#include "util/random.h"

namespace dcp::net {

/// Message latency model: uniform in [base, base + jitter].
struct LatencyModel {
  sim::Time base = 1.0;
  sim::Time jitter = 0.5;
};

/// Message-fault knobs for one directed link (or, as FaultModel::global,
/// for every link). The default-constructed value is *trivial*: it injects
/// nothing and the network behaves exactly as the paper's fail-stop model.
struct LinkFaults {
  double drop = 0.0;       ///< P(message lost in transit).
  double duplicate = 0.0;  ///< P(message delivered exactly twice).
  double reorder = 0.0;    ///< P(message suffers an extra latency spike,
                           ///< letting later sends overtake it).
  sim::Time reorder_spike = 25.0;  ///< Max extra latency for a reordered msg.
  std::optional<LatencyModel> latency;  ///< Overrides the network latency.

  bool trivial() const {
    return drop <= 0 && duplicate <= 0 && reorder <= 0 && !latency;
  }
};

/// The extended fault model applied at Send() time. A per-link entry, when
/// present, replaces `global` for that directed (src, dst) pair. One-way
/// link cuts are separate state on the Network (see CutLink) so they can
/// be flipped without touching probabilities.
struct FaultModel {
  LinkFaults global;
  std::map<std::pair<NodeId, NodeId>, LinkFaults> per_link;

  bool trivial() const {
    if (!global.trivial()) return false;
    for (const auto& [link, f] : per_link) {
      if (!f.trivial()) return false;
    }
    return true;
  }

  /// The faults governing a message src -> dst.
  const LinkFaults& For(NodeId src, NodeId dst) const {
    auto it = per_link.find({src, dst});
    return it == per_link.end() ? global : it->second;
  }
};

/// The simulated network: node registry, up/down status, partitions,
/// latency, and traffic accounting.
///
/// Fault model (Section 3 of the paper): nodes and links are fail-stop.
/// A message is deliverable iff, *at delivery time*, both endpoints are up
/// and in the same partition group. An undeliverable request surfaces to
/// the sender as RPC.CallFailed (handled by RpcRuntime).
///
/// Beyond the paper, an optional FaultModel adds message-level faults at
/// Send() time: probabilistic drop, duplication, reordering (latency
/// spikes), per-link latency overrides, and asymmetric one-way link cuts.
/// Dropped *requests* still fire `on_failed`, so RPC.CallFailed semantics
/// are preserved; dropped responses surface via the caller's timeout. A
/// trivial (all-zero) FaultModel leaves behavior bit-for-bit identical to
/// the pristine fail-stop network: the fault RNG is only ever touched once
/// a non-trivial model is installed.
///
/// Network is the simulator backend of the `rt::Transport` seam — there
/// is no wrapper between the seam and the event queue, so the refactor
/// that introduced the seam left seeded schedules byte-identical.
class Network final : public rt::Transport {
 public:
  Network(sim::Simulator* sim, Rng rng, LatencyModel latency = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers `sink` for `node`. Nodes start up and fully connected.
  void Register(NodeId node, MessageSink* sink) override;

  /// Crash / repair. Crashing does not drop registration; it only makes
  /// the node unreachable (fail-stop).
  void SetNodeUp(NodeId node, bool up) override;
  bool IsUp(NodeId node) const override;

  /// Installs a partitioning: each set is a connectivity group; nodes not
  /// mentioned keep group 0. Overwrites any previous partitioning.
  void SetPartitions(const std::vector<NodeSet>& groups);
  /// Restores full connectivity (partition groups only; link cuts and the
  /// fault model are lifted separately).
  void HealPartitions();

  /// True iff a message from `a` could currently be delivered to `b`
  /// (both up, same partition group, directed link not cut).
  bool Reachable(NodeId a, NodeId b) const;

  /// True iff `a` and `b` are in the same partition group (regardless of
  /// up/down status).
  bool SameGroup(NodeId a, NodeId b) const;

  // --- message-level fault injection -------------------------------------

  /// Installs (replaces) the whole fault model.
  void set_fault_model(FaultModel model);
  const FaultModel& fault_model() const { return fault_model_; }

  /// Sets the faults for the directed link src -> dst (replacing `global`
  /// for that link). A trivial `faults` value erases the entry.
  void SetLinkFaults(NodeId src, NodeId dst, const LinkFaults& faults);

  /// Sets the global (every-link default) faults.
  void SetGlobalFaults(const LinkFaults& faults);

  /// Cuts the directed link src -> dst: src's messages to dst fail (as
  /// CallFailed), while dst -> src traffic is untouched — an asymmetric
  /// fault the paper's partition model cannot express.
  void CutLink(NodeId src, NodeId dst);
  void RestoreLink(NodeId src, NodeId dst);
  bool LinkCut(NodeId src, NodeId dst) const;

  /// Lifts every message-level fault: fault model and link cuts (does not
  /// touch partitions or node up/down state).
  void ClearFaults();

  /// Sends a message. Delivery (or loss) happens after a sampled latency.
  /// If the message turns out undeliverable — or the fault model drops
  /// it — `on_failed`, when provided, fires at the sender side at the
  /// would-be delivery time; this is the transport half of RPC.CallFailed.
  void Send(Message msg, std::function<void()> on_failed = nullptr) override;

  /// Every node shares the one simulator as its runtime.
  rt::Runtime* runtime(NodeId node) override {
    (void)node;
    return sim_;
  }

  /// Conformance-test hook; see rt::SendTap. Observes messages from live
  /// senders at Send() time, before latency sampling or fault injection.
  void set_send_tap(rt::SendTap tap) override { send_tap_ = std::move(tap); }

  sim::Simulator* simulator() { return sim_; }

 private:
  /// Registry handles for one message type's counters, cached so the
  /// send/deliver hot path never does a by-name registry lookup. Keyed
  /// by the interned TypeName pointer: a type's counters are one flat
  /// hash probe away, with no string hashing or comparisons.
  struct TypeCounters {
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* duplicated = nullptr;
  };

  sim::Time SampleLatency(const LatencyModel& model);
  /// Seeds the fault RNG from the latency RNG on first use, so fault
  /// schedules derive from the network seed without perturbing the
  /// latency stream of fault-free runs.
  void EnsureFaultRng();
  void ScheduleDelivery(Message msg, sim::Time latency,
                        std::function<void()> on_failed);
  TypeCounters& ForType(TypeName type);
  obs::Counter* DeliveredTo(NodeId node);

  sim::Simulator* sim_;
  rt::SendTap send_tap_;
  Rng rng_;
  Rng fault_rng_{0};  // dcp-lint: allow(raw-rng) — re-seeded lazily
  bool fault_rng_seeded_ = false;
  LatencyModel latency_;
  FaultModel fault_model_;
  std::set<std::pair<NodeId, NodeId>> cut_links_;
  // Per-node state, indexed by NodeId (node ids are dense small
  // integers): every delivery checks up/partition/sink, so these are
  // flat vectors rather than maps. sinks_[n] == nullptr marks an
  // unregistered id.
  std::vector<MessageSink*> sinks_;
  std::vector<uint8_t> up_;
  std::vector<uint32_t> partition_group_;

  // Traffic accounting lives only in the simulator's metrics registry;
  // these are cached handles. The names are "net.{sent,delivered,failed,
  // dropped,duplicated,reordered}", per message type
  // "net.type.<type>.{sent,delivered,failed,dropped,duplicated}" and the
  // load-sharing distribution "net.delivered_to.<node>"; the per-type and
  // per-node names are registered at first use. Readers zero them with
  // metrics().ResetPrefix("net."). One Network per Simulator — two
  // networks on one sim would share (and double-count) the names.
  obs::Counter* sent_;
  obs::Counter* delivered_;
  obs::Counter* failed_;
  obs::Counter* dropped_;
  obs::Counter* duplicated_;
  obs::Counter* reordered_;
  FlatMap<TypeCounters> type_counters_;   ///< Keyed by TypeName::key().
  FlatMap<obs::Counter*> delivered_to_;   ///< Keyed by NodeId.
};

}  // namespace dcp::net

#endif  // DCP_NET_NETWORK_H_
