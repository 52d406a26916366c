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

/// The epoch daemon of one node, in either deployment shape: ONE periodic
/// timer drives the epoch checks of every lineage the node hosts, so the
/// runtime's timer load stays O(nodes) instead of O(nodes x lineages). A
/// group node's ring holds the group lineage (through object 0); a
/// sharded node's ring holds each hosted object.
///
/// Each tick drains the dirty set (objects flagged by recovery or failed
/// checks) and then advances a round-robin cursor over the hosted ring by
/// kBatchPerTick objects; the tick period is derived so that every hosted
/// object is visited about once per `check_interval`, regardless of how
/// many objects the node hosts.
///
/// Duty follows the object's ranking with polls as the heartbeat (the
/// paper's "new election would be started by any node noticing that epoch
/// checking has not run for a while", Section 4.3): the node at rank 0
/// checks at every visit, and the node at rank r >= 1 checks only once it
/// has answered no epoch poll for the lineage from another node for
/// (r+1) x check_interval. Every check polls every member, so a live
/// rank-0 node keeps the others quiet, and a partitioned or crashed one
/// is replaced by the next rank that still hears nobody. Correctness
/// never depends on the duty choice: epoch installation is arbitrated by
/// the per-lineage 2PC, and two nodes that transiently both hold duty
/// merely duplicate a check.
class EpochMux {
 public:
  /// `ranked` lists the objects to check with their duty rankings (the
  /// placement ranking when sharded; the pool, highest id first, for the
  /// group lineage). Each ranking must list this node.
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
  /// Runs the check of `object`'s lineage if this node currently holds
  /// duty for it and no check for it is already in flight.
  void MaybeCheck(storage::ObjectId object, bool from_dirty);
  /// The duty rule of the class comment.
  [[nodiscard]] bool HoldsDuty(storage::ObjectId object) const;

  /// Ring objects considered per tick (and the concurrent-check bound).
  static constexpr uint32_t kBatchPerTick = 4;
  /// Label cap of the per-object check counter family
  /// ("shard.mux.object_checks.<id>"); further objects fold into the
  /// family's overflow bucket.
  static constexpr size_t kMetricCap = 16;

  ReplicaNode* node_;
  rt::Time check_interval_;
  rt::Time tick_interval_ = 0;
  std::vector<storage::ObjectId> ring_;
  std::map<storage::ObjectId, size_t> ranks_;  ///< This node's duty rank.
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
