#ifndef DCP_ANALYSIS_CLIENT_HISTORY_H_
#define DCP_ANALYSIS_CLIENT_HISTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/replica_store.h"
#include "storage/versioned_object.h"
#include "util/status.h"

namespace dcp::analysis {

/// One client-observable operation: what a client invoked, when, and what
/// (if anything) came back. This is the raw material of the end-to-end
/// consistency audit (linearize.h) — everything here is visible *outside*
/// the protocol: invocation/response times, the update a write carried,
/// the (version, data) a read returned, and the outcome class.
///
/// Outcome semantics follow the LARK/Porcupine convention:
///   kOk     the client received a success response; for linearizability
///           the operation takes effect somewhere in [invoked, returned].
///   kFailed the client received an error that *proves* the operation did
///           not take effect (lock conflict, decided 2PC abort, rejected
///           argument). Such writes impose no constraint.
///   kOpen   the client never learned the outcome — a timeout, a lost
///           ack, a crash of the coordinator mid-operation, or a run that
///           ended with the call in flight. The operation is concurrent
///           with everything after its invocation and MAY have taken
///           effect (the in-doubt 2PC roll-forward case); the checker
///           must allow both.
struct ClientOp {
  enum class Kind : uint8_t { kRead = 0, kWrite = 1 };
  enum class Outcome : uint8_t { kOk = 0, kFailed = 1, kOpen = 2 };

  uint64_t client = 0;  ///< Logical session; ops of one client are sequential.
  uint64_t id = 0;      ///< Unique per history, in invocation order.
  storage::ObjectId object = 0;
  Kind kind = Kind::kRead;
  Outcome outcome = Outcome::kOpen;

  double invoked_at = 0;
  /// Response time. Meaningful only for kOk / kFailed; for kOpen the
  /// interval is right-open (the checker treats the end as +infinity) and
  /// this field, when nonzero, merely records when the client gave up —
  /// diagnostic, never a linearization bound.
  double returned_at = 0;

  storage::Update update;  ///< Writes: the update the client submitted.

  /// Writes (kOk): the version the ack carried. Reads (kOk): the version
  /// observed. Versions are client-visible — every ack/response carries
  /// one — and pin an operation to a slot in the serial order.
  storage::Version version = 0;
  std::vector<uint8_t> data;  ///< Reads (kOk): the observed contents.

  /// Ranged reads: when `read_full` is false the read observed only
  /// data[read_offset, read_offset+data.size()). The stock protocol reads
  /// whole objects; the checker supports ranges so partial-read clients
  /// (and hand-written fixtures) audit identically.
  bool read_full = true;
  uint64_t read_offset = 0;

  std::string Describe() const;
};

/// An append-only recorder of ClientOps with open-interval support:
/// Invoke*() records the invocation immediately (so operations that never
/// return still exist in the history, as kOpen), and the Return*/Fail/
/// Abandon calls settle the interval later. Ops keep invocation order;
/// the returned op ids index into ops().
///
/// The recorder is pure observation: it draws no randomness and schedules
/// nothing, so attaching one to a harness never perturbs a seeded run.
class ClientHistory {
 public:
  uint64_t InvokeWrite(uint64_t client, storage::ObjectId object,
                       const storage::Update& update, double now);
  uint64_t InvokeRead(uint64_t client, storage::ObjectId object, double now);

  /// Settles op `id` as acknowledged with `version`.
  void ReturnWrite(uint64_t id, double now, storage::Version version);
  void ReturnRead(uint64_t id, double now, storage::Version version,
                  std::vector<uint8_t> data);

  /// Settles op `id` as failed. `definite` says whether the error proves
  /// the operation did not take effect; indefinite failures (timeouts,
  /// lost acks, unreachable coordinators) stay open-interval.
  void Fail(uint64_t id, double now, bool definite);

  /// The client gave up (client-side timeout): the interval stays open,
  /// `now` is recorded as diagnostic give-up time. A later Return*/Fail
  /// for the same id is ignored — the client never saw it.
  void Abandon(uint64_t id, double now);

  const std::vector<ClientOp>& ops() const { return ops_; }
  ClientOp* op(uint64_t id) { return &ops_.at(id); }
  bool settled(uint64_t id) const { return settled_.at(id); }

  /// Adds a fully-formed op (fixtures, imports). Returns its id.
  uint64_t Add(ClientOp op);

  /// One JSON object per op per line, in invocation order. Times use the
  /// shortest round-trippable representation; byte payloads are lowercase
  /// hex. Open ops omit "returned".
  std::string ToJsonl() const;

  /// Parses a document written by ToJsonl. Appends to *out; returns false
  /// on the first malformed line (leaving *out partially filled).
  static bool FromJsonl(const std::string& jsonl, ClientHistory* out);

 private:
  std::vector<ClientOp> ops_;
  /// True once the outcome is final (returned, definite fail, abandoned).
  std::vector<bool> settled_;
};

/// Whether `s` proves the operation did not take effect. Lock conflicts,
/// decided aborts, stale data and rejected requests are definite;
/// timeouts, lost RPCs and unreachable quorums leave the outcome in doubt
/// (the operation may have committed behind the error), so a history
/// keeps those open-interval.
bool IsDefiniteFailure(const Status& s);

}  // namespace dcp::analysis

#endif  // DCP_ANALYSIS_CLIENT_HISTORY_H_
