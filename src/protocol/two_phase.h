#ifndef DCP_PROTOCOL_TWO_PHASE_H_
#define DCP_PROTOCOL_TWO_PHASE_H_

#include <functional>
#include <map>
#include <vector>

#include "protocol/messages.h"
#include "protocol/replica_node.h"
#include "util/status.h"

namespace dcp::protocol {

/// Coordinator side of the atomic-commit protocol Section 4 leans on
/// ("The two-phase commit protocol [2] is used to ensure all-or-nothing
/// execution"). Presumed-abort flavor:
///
///   1. prepare(action_i) to every participant; each stages the action
///      under the transaction's lock and acknowledges;
///   2. if all prepared: the coordinator logs COMMIT locally (the commit
///      point) and multicasts commit; otherwise it logs ABORT and
///      multicasts abort.
///
/// Participants that lose touch mid-protocol run cooperative termination
/// (see ReplicaNode::RunTerminationProtocol); a coordinator with no
/// decision record and no in-flight state implies abort.
class TwoPhaseCommit {
 public:
  using Done = std::function<void(Status)>;

  /// Runs one transaction from `coordinator`. Participants are the keys
  /// of `actions`. An epoch install's prepare acquires its exclusive
  /// locks; any other prepare must find them held by `tx` from its lock
  /// round and is refused (Conflict) where they are not.
  /// `done` fires with OK once commit is decided and phase 2 has been
  /// delivered (participants unreachable during phase 2 finish via
  /// termination), or with Aborted/Unavailable if prepare failed —
  /// StaleData if the first refusal said the participant's state moved.
  /// `expect` gives a participant the polled state its prepare must still
  /// find (PrepareRequest::expect); epoch installs set it.
  static void Run(
      ReplicaNode* coordinator, const LockOwner& tx,
      std::map<NodeId, StagedAction> actions, Done done,
      std::map<NodeId, std::vector<ObjectStateTuple>> expect = {});
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_TWO_PHASE_H_
