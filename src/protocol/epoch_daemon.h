#ifndef DCP_PROTOCOL_EPOCH_DAEMON_H_
#define DCP_PROTOCOL_EPOCH_DAEMON_H_

#include <cstdint>
#include <memory>

#include "protocol/messages.h"
#include "protocol/replica_node.h"
#include "runtime/runtime.h"

namespace dcp::protocol {

struct EpochDaemonOptions {
  /// Period of the "steady (albeit infrequent) pulse of epoch checking
  /// operations" (Section 2). Only the elected leader actually runs them.
  rt::Time check_interval = 300.0;

  /// If a node hears nothing from a leader for this long, it campaigns
  /// ("a new election would be started by any node noticing that epoch
  /// checking has not run for a while", Section 4.3).
  rt::Time leader_timeout = 900.0;
};

/// Per-node background task: elects the epoch-check initiator (bully
/// election over the linearly ordered node names, per Garcia-Molina [7])
/// and, on the leader, issues periodic CheckEpoch operations.
class EpochDaemon {
 public:
  EpochDaemon(ReplicaNode* node, EpochDaemonOptions options = {});
  ~EpochDaemon();
  EpochDaemon(const EpochDaemon&) = delete;
  EpochDaemon& operator=(const EpochDaemon&) = delete;

  /// Called by the cluster harness around fail-stop events.
  void OnCrash();
  void OnRecover();

 private:
  void Tick();
  void Campaign();
  void AssumeLeadership();
  [[nodiscard]]
  Result<net::PayloadPtr> HandleExtension(NodeId from, const std::string& type,
                                          const net::PayloadPtr& request);

  /// Registry handles ("daemon.<id>.*"), cached at construction.
  struct DaemonCounters {
    obs::Counter* checks_run;
    obs::Counter* checks_failed;
    obs::Counter* elections_started;
    obs::Counter* leaderships_assumed;
  };

  ReplicaNode* node_;
  EpochDaemonOptions options_;
  DaemonCounters counters_;
  std::unique_ptr<rt::PeriodicTimer> ticker_;
  NodeId believed_leader_;
  rt::Time last_leader_heard_ = 0;
  bool check_in_flight_ = false;
  bool campaigning_ = false;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_EPOCH_DAEMON_H_
