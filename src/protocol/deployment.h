#ifndef DCP_PROTOCOL_DEPLOYMENT_H_
#define DCP_PROTOCOL_DEPLOYMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/client_history.h"
#include "coterie/coterie.h"
#include "protocol/operations.h"
#include "protocol/placement.h"
#include "protocol/replica_node.h"
#include "runtime/transport.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace dcp::protocol {

/// Which coterie rule the dynamic protocol runs over. The protocol of
/// Section 4 is rule-agnostic; this is the generality the paper claims.
enum class CoterieKind {
  kGrid,             ///< Section 5's dynamic grid (with optimization).
  kGridUnoptimized,  ///< Grid without the short-column optimization.
  kGridColumnSafe,   ///< Grid with the corrected construction rule.
  kMajority,         ///< Dynamic voting-style (Section 7).
  kTree,             ///< Agrawal-El Abbadi tree quorums.
  kHierarchical,     ///< Kumar's hierarchical quorum consensus.
};

/// Constructs a coterie rule instance by kind (caller owns it).
std::unique_ptr<coterie::CoterieRule> MakeCoterieRule(CoterieKind kind);

/// The *SyncRetry wrappers' pause between attempts: the base plus a
/// uniform extra in [0, jitter), in the backend's time unit.
inline constexpr rt::Time kRetryBackoffBase = 5.0;
inline constexpr rt::Time kRetryBackoffJitter = 20.0;

/// One deployment of the protocol, whatever moves its messages: the
/// nodes over one rt::Transport (one replica group sharing an epoch, or
/// sharded by an ObjectTable with a lineage per object), the client
/// calls with their blocking and retrying forms, and the invariant
/// checkers. A backend (Cluster: simulator; harness::SocketCluster:
/// loopback TCP) builds its transport, calls BuildNodes, and supplies
/// Await and RunFor. Blocking calls may run from several threads; the RNG
/// they draw from is behind a mutex. Async calls and checkers touch node
/// state, so on sockets they run on the node's runtime or after Stop().
class Deployment {
 public:
  virtual ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const coterie::CoterieRule& rule() const { return *rule_; }
  ReplicaNode& node(NodeId id) { return *nodes_[id]; }
  const ReplicaNode& node(NodeId id) const { return *nodes_[id]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  uint32_t num_objects() const { return num_objects_; }
  const NodeSet& all_nodes() const { return all_; }
  /// The placement table of a sharded deployment; null in group mode.
  const ObjectTable* table() const { return table_.get(); }
  /// Every read and write started here, as client ops (if recorded).
  const analysis::ClientHistory& history() const { return history_; }

  /// The nodes holding `object`'s replicas: its placement home set when
  /// sharded, every node in group mode.
  const NodeSet& HomeNodes(storage::ObjectId object) const {
    return table_ ? table_->placement(object).replicas : all_;
  }
  /// The nodes the transport reports up.
  NodeSet UpNodes() const;
  /// Picks a coordinator for `object`: a live home node (rotated by the
  /// deployment's RNG), falling back to any live node, then home member 0.
  [[nodiscard]] NodeId RouteCoordinator(storage::ObjectId object);

  // --- asynchronous client operations (coordinator = a replica node) ---
  void Write(NodeId coordinator, storage::ObjectId object, Update update,
             WriteDone done);
  void Write(NodeId coordinator, Update update, WriteDone done) {
    Write(coordinator, 0, std::move(update), std::move(done));
  }
  void Read(NodeId coordinator, storage::ObjectId object, ReadDone done);
  void Read(NodeId coordinator, ReadDone done) {
    Read(coordinator, 0, std::move(done));
  }
  /// Cross-object transaction: every spec commits or none does.
  void TxnWrite(NodeId coordinator, std::vector<TxnWriteSpec> specs,
                TxnWriteDone done);
  /// Epoch check of the lineage that owns `object` (the group-wide one
  /// in group mode).
  void CheckEpoch(NodeId initiator, storage::ObjectId object,
                  EpochCheckDone done);

  // --- blocking wrappers (the backend's Await) ---
  [[nodiscard]]
  Result<WriteOutcome> WriteSync(NodeId coordinator, storage::ObjectId object,
                                 Update update);
  [[nodiscard]]
  Result<WriteOutcome> WriteSync(NodeId coordinator, Update update) {
    return WriteSync(coordinator, 0, std::move(update));
  }
  [[nodiscard]] Result<ReadOutcome> ReadSync(NodeId coordinator,
                                             storage::ObjectId object = 0);
  [[nodiscard]] Result<TxnWriteOutcome> TxnWriteSync(
      NodeId coordinator, std::vector<TxnWriteSpec> specs);
  [[nodiscard]] Status CheckEpochSync(NodeId initiator,
                                      storage::ObjectId object = 0);

  /// WriteSync retried on lock conflicts (randomized backoff through
  /// RunFor); every other status is returned at once. `max_attempts` < 1
  /// returns InvalidArgument without running anything.
  [[nodiscard]] Result<WriteOutcome> WriteSyncRetry(NodeId coordinator,
                                                    storage::ObjectId object,
                                                    Update update,
                                                    int max_attempts = 10);
  [[nodiscard]]
  Result<WriteOutcome> WriteSyncRetry(NodeId coordinator, Update update,
                                      int max_attempts = 10) {
    return WriteSyncRetry(coordinator, 0, std::move(update), max_attempts);
  }
  [[nodiscard]] Result<ReadOutcome> ReadSyncRetry(NodeId coordinator,
                                                  storage::ObjectId object,
                                                  int max_attempts = 10);

  /// Lets `duration` pass: simulated time, or real ms on sockets.
  virtual void RunFor(rt::Time duration) = 0;

  // --- invariant checking (test support; on sockets, after Stop()) ---

  /// Lemma-1 style epoch invariants per object over its home nodes, valid
  /// at quiescence (no prepared transaction anywhere): nodes sharing an
  /// epoch number agree on the epoch list and belong to it; only the
  /// highest epoch number present can assemble a write quorum from its own
  /// members.
  [[nodiscard]] Status CheckEpochInvariants() const;

  /// Per object over its home nodes: all non-stale replicas at the
  /// maximum version hold identical data; stale replicas are strictly
  /// behind their desired version or awaiting ClearStale.
  [[nodiscard]] Status CheckReplicaConsistency() const;

  /// True iff no node currently has a prepared-but-undecided 2PC action.
  bool Quiescent() const;

  /// Audits history() for linearizability (analysis::AuditHistory, from
  /// the initial value). An inconclusive verdict, or no recorded
  /// history, is an error.
  [[nodiscard]] Status CheckHistory() const;

 protected:
  /// `seed` roots the RNG and, when `sharded`, the placement table (its
  /// own stream). `record_history` needs a single-threaded backend.
  Deployment(uint32_t num_nodes, uint32_t num_objects, bool sharded,
             uint32_t replication_factor, uint64_t seed, CoterieKind coterie,
             std::vector<uint8_t> initial_value, WriteOptions write_options,
             bool record_history);

  /// Forks a child stream from the deployment's RNG.
  [[nodiscard]] Rng ForkRng();
  /// Builds node i over `transport` with `node_options(i)`, from one
  /// catalog; once, in the backend's constructor.
  void BuildNodes(rt::Transport* transport,
                  const std::function<ReplicaNodeOptions(NodeId)>& node_options);

  /// A blocking call's operation, started with its completion callback.
  using Call = std::function<void(std::function<void()> completed)>;
  /// Starts `call` on node `at`'s execution context and waits for it; a
  /// non-OK status (naming `what`) means it did not complete.
  [[nodiscard]] virtual Status Await(NodeId at, Call call,
                                     const char* what) = 0;

 private:
  /// Runs `start(done)` through Await and returns what `done` got.
  template <typename T, typename Start>
  T RunSync(NodeId at, const char* what, Start start);
  /// Repeats `attempt()` while it fails with a lock conflict, up to
  /// `max_attempts` times, backing off in between.
  template <typename T, typename Attempt>
  T Retry(int max_attempts, Attempt attempt);
  NodeId PickMember(const NodeSet& nodes);
  analysis::ClientHistory* recorder() {
    return record_history_ ? &history_ : nullptr;
  }

  util::Mutex rng_mu_;
  Rng rng_ DCP_GUARDED_BY(rng_mu_);
  const NodeSet all_;
  const uint32_t num_objects_;
  const std::vector<uint8_t> initial_value_;
  const WriteOptions write_options_;
  const bool record_history_;
  std::unique_ptr<ObjectTable> table_;  ///< Sharded mode only.
  std::unique_ptr<coterie::CoterieRule> rule_;
  rt::Transport* transport_ = nullptr;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  analysis::ClientHistory history_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_DEPLOYMENT_H_
