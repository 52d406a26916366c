#ifndef DCP_PROTOCOL_EPOCH_MUX_H_
#define DCP_PROTOCOL_EPOCH_MUX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "protocol/replica_node.h"
#include "runtime/runtime.h"

namespace dcp::protocol {

/// The multiplexed epoch daemon of a sharded node: ONE periodic timer
/// drives per-object epoch checks for every object the node hosts, so the
/// runtime's timer load stays O(nodes) instead of O(nodes x objects).
///
/// Each tick drains the dirty set (objects flagged by recovery or failed
/// checks) and then advances a round-robin cursor over the hosted ring by
/// kBatchPerTick objects; the tick period is derived so that every hosted
/// object is visited about once per `check_interval`, regardless of how
/// many objects the node hosts. A check for an object only runs from its
/// current duty holder — the first live member of the object's placement
/// ranking — so at most one home node polls per object per cadence.
/// Correctness never depends on the duty choice: epoch installation is
/// arbitrated by the per-object 2PC, and two nodes that transiently both
/// believe they hold duty merely duplicate a check.
class EpochMux {
 public:
  /// `ranked` lists the hosted objects with their placement rankings
  /// (ObjectTable::placement(o).ranking); the ranking orders duty
  /// preference. Objects the node does not host are rejected upstream.
  EpochMux(ReplicaNode* node,
           std::vector<std::pair<storage::ObjectId, std::vector<NodeId>>>
               ranked,
           rt::Time check_interval);
  ~EpochMux();
  EpochMux(const EpochMux&) = delete;
  EpochMux& operator=(const EpochMux&) = delete;

  /// Flags an object for an immediate check at the next tick (failed
  /// operation, suspected divergence, post-recovery).
  void MarkDirty(storage::ObjectId object);

  /// Called by the cluster harness around fail-stop events.
  void OnCrash();
  void OnRecover();

  [[nodiscard]] rt::Time tick_interval() const { return tick_interval_; }

 private:
  void Tick();
  /// Runs the scoped check for `object` if this node currently holds duty
  /// for it and no check for it is already in flight.
  void MaybeCheck(storage::ObjectId object, bool from_dirty);
  [[nodiscard]] bool HoldsDuty(storage::ObjectId object) const;

  /// Ring objects considered per tick (and the concurrent-check bound).
  static constexpr uint32_t kBatchPerTick = 4;
  /// Label cap of the per-object check counter family
  /// ("shard.mux.object_checks.<id>"); further objects fold into the
  /// family's overflow bucket.
  static constexpr size_t kMetricCap = 16;

  ReplicaNode* node_;
  rt::Time tick_interval_ = 0;
  std::vector<storage::ObjectId> ring_;
  std::map<storage::ObjectId, std::vector<NodeId>> rankings_;
  size_t cursor_ = 0;
  std::set<storage::ObjectId> dirty_;
  std::set<storage::ObjectId> in_flight_;
  std::unique_ptr<rt::PeriodicTimer> ticker_;

  obs::Counter* ticks_;
  obs::Counter* checks_run_;
  obs::Counter* checks_ok_;
  obs::Counter* checks_failed_;
  obs::Counter* dirty_checks_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_EPOCH_MUX_H_
