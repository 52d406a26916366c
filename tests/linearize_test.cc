#include "analysis/linearize.h"

#include <gtest/gtest.h>

#include "analysis/client_history.h"

namespace dcp::analysis {
namespace {

using storage::Update;
using storage::Version;

/// Fixture builders. Ops are on object 0 unless stated; ids are assigned
/// by ClientHistory::Add in insertion order.
ClientOp AckedWrite(uint64_t client, double inv, double ret, Version v,
                    Update u, storage::ObjectId object = 0) {
  ClientOp op;
  op.client = client;
  op.object = object;
  op.kind = ClientOp::Kind::kWrite;
  op.outcome = ClientOp::Outcome::kOk;
  op.invoked_at = inv;
  op.returned_at = ret;
  op.version = v;
  op.update = std::move(u);
  return op;
}

ClientOp OpenWrite(uint64_t client, double inv, Update u,
                   storage::ObjectId object = 0) {
  ClientOp op;
  op.client = client;
  op.object = object;
  op.kind = ClientOp::Kind::kWrite;
  op.outcome = ClientOp::Outcome::kOpen;
  op.invoked_at = inv;
  op.update = std::move(u);
  return op;
}

ClientOp FailedWrite(uint64_t client, double inv, double ret, Update u,
                     storage::ObjectId object = 0) {
  ClientOp op;
  op.client = client;
  op.object = object;
  op.kind = ClientOp::Kind::kWrite;
  op.outcome = ClientOp::Outcome::kFailed;
  op.invoked_at = inv;
  op.returned_at = ret;
  op.update = std::move(u);
  return op;
}

ClientOp OkRead(uint64_t client, double inv, double ret, Version v,
                std::vector<uint8_t> data, storage::ObjectId object = 0) {
  ClientOp op;
  op.client = client;
  op.object = object;
  op.kind = ClientOp::Kind::kRead;
  op.outcome = ClientOp::Outcome::kOk;
  op.invoked_at = inv;
  op.returned_at = ret;
  op.version = v;
  op.data = std::move(data);
  return op;
}

AuditOptions LinOptions(std::vector<uint8_t> initial = {}) {
  AuditOptions o;
  o.mode = AuditMode::kLinearizable;
  o.initial_value = std::move(initial);
  return o;
}

// ---------------------------------------------------------------------------
// Known-good histories.

TEST(Linearize, EmptyHistoryOk) {
  AuditVerdict v = AuditOps({}, LinOptions());
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.ToString(), "linearizable");
}

TEST(Linearize, SequentialRunOk) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(AckedWrite(0, 20, 30, 2, Update::Partial(1, {'b'})));
  ops.push_back(OkRead(1, 40, 50, 2, {'a', 'b'}));
  ops.push_back(OkRead(1, 60, 70, 2, {'a', 'b'}));
  AuditVerdict v = AuditOps(ops, LinOptions());
  EXPECT_TRUE(v.ok) << v.ToString();
}

TEST(Linearize, ConcurrentReadMayReturnEitherVersion) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  // Write v2 over [20, 40); a read overlapping it may see v1 or v2.
  ops.push_back(AckedWrite(0, 20, 40, 2, Update::Total({'b'})));
  ops.push_back(OkRead(1, 25, 30, 1, {'a'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
  ops.back() = OkRead(1, 25, 30, 2, {'b'});
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, DefiniteFailureImposesNothing) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  // A definitely-failed write never took effect; reads ignore it.
  ops.push_back(FailedWrite(1, 15, 18, Update::Total({'z'})));
  ops.push_back(OkRead(2, 20, 30, 1, {'a'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, ReadsRespectInitialValue) {
  std::vector<ClientOp> ops;
  ops.push_back(OkRead(0, 0, 5, 0, {'i', 'j'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions({'i', 'j'})).ok);
  EXPECT_FALSE(AuditOps(ops, LinOptions({'x', 'y'})).ok);
}

TEST(Linearize, MultiObjectPartition) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'}), /*object=*/0));
  ops.push_back(AckedWrite(1, 0, 10, 1, Update::Total({'b'}), /*object=*/1));
  ops.push_back(OkRead(2, 20, 30, 1, {'a'}, /*object=*/0));
  ops.push_back(OkRead(2, 40, 50, 1, {'b'}, /*object=*/1));
  AuditVerdict v = AuditOps(ops, LinOptions());
  EXPECT_TRUE(v.ok) << v.ToString();
  // Break only object 1: the verdict must name it.
  ops.push_back(OkRead(3, 60, 70, 0, {}, /*object=*/1));
  v = AuditOps(ops, LinOptions());
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.explanation.find("object 1"), std::string::npos)
      << v.explanation;
}

// ---------------------------------------------------------------------------
// Open-interval (possibly-committed) semantics.

TEST(Linearize, OpenWriteMayTakeEffect) {
  std::vector<ClientOp> ops;
  ops.push_back(OpenWrite(0, 0, Update::Total({'a'})));
  ops.push_back(OkRead(1, 10, 20, 1, {'a'}));  // Roll-forward: it landed.
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, OpenWriteMayBeDropped) {
  std::vector<ClientOp> ops;
  ops.push_back(OpenWrite(0, 0, Update::Total({'a'})));
  ops.push_back(OkRead(1, 10, 20, 0, {'i'}));  // Roll-back: it vanished.
  EXPECT_TRUE(AuditOps(ops, LinOptions({'i'})).ok);
}

TEST(Linearize, OpenWriteObservedThenMissingIsViolation) {
  // Once any read observes the in-doubt write, it is committed; a later
  // read un-observing it is a lost update.
  std::vector<ClientOp> ops;
  ops.push_back(OpenWrite(0, 0, Update::Total({'a'})));
  ops.push_back(OkRead(1, 10, 20, 1, {'a'}));
  ops.push_back(OkRead(1, 30, 40, 0, {'i'}));
  AuditVerdict v = AuditOps(ops, LinOptions({'i'}));
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.inconclusive);
}

TEST(Linearize, OpenWriteNotBeforeItsInvocation) {
  // The in-doubt write was invoked at t=50; a read that finished at t=20
  // cannot have observed it (real-time order).
  std::vector<ClientOp> ops;
  ops.push_back(OkRead(1, 10, 20, 1, {'a'}));
  ops.push_back(OpenWrite(0, 50, Update::Total({'a'})));
  AuditVerdict v = AuditOps(ops, LinOptions());
  EXPECT_FALSE(v.ok);
}

// ---------------------------------------------------------------------------
// The five named violating fixtures (checker-validation suite).

TEST(Linearize, StaleReadCaught) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(AckedWrite(0, 20, 30, 2, Update::Total({'b'})));
  // Invoked after both writes returned, yet observed v1.
  ops.push_back(OkRead(1, 40, 50, 1, {'a'}));
  AuditVerdict v = AuditOps(ops, LinOptions());
  ASSERT_FALSE(v.ok);
  EXPECT_FALSE(v.inconclusive);
  EXPECT_NE(v.explanation.find("stale read"), std::string::npos)
      << v.explanation;
  // Minimization drops both writes: a lone read claiming v1 with no write
  // in the history at all is already the smallest violating sub-history.
  ASSERT_EQ(v.counterexample.size(), 1u);
  EXPECT_EQ(v.counterexample[0].kind, ClientOp::Kind::kRead);
  EXPECT_EQ(v.counterexample[0].version, 1u);
}

TEST(Linearize, LostWriteCaught) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  // Invoked after the ack, yet observed the initial state: the acked
  // write is lost.
  ops.push_back(OkRead(1, 20, 30, 0, {'i'}));
  AuditVerdict v = AuditOps(ops, LinOptions({'i'}));
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.explanation.find("stale read"), std::string::npos)
      << v.explanation;
  // Neither op alone violates: the minimal counterexample is the pair.
  ASSERT_EQ(v.counterexample.size(), 2u);
  EXPECT_EQ(v.counterexample[0].kind, ClientOp::Kind::kWrite);
  EXPECT_EQ(v.counterexample[1].kind, ClientOp::Kind::kRead);
  EXPECT_EQ(v.counterexample[1].version, 0u);
}

TEST(Linearize, CircularReadFromCaught) {
  // Two in-doubt writes; R1's bytes pin the order W1 before W2, R2's pin
  // W2 before W1 — a read-from cycle with no consistent serial order.
  //   W1 = total{'a'}; W2 = patch [1]='b'
  //   W1,W2 replay => "ab";  W2,W1 replay => "a"
  std::vector<ClientOp> ops;
  ops.push_back(OpenWrite(0, 0, Update::Total({'a'})));
  ops.push_back(OpenWrite(1, 0, Update::Partial(1, {'b'})));
  ops.push_back(OkRead(2, 10, 20, 2, {'a', 'b'}));
  ops.push_back(OkRead(2, 30, 40, 2, {'a'}));
  AuditVerdict v = AuditOps(ops, LinOptions());
  ASSERT_FALSE(v.ok);
  EXPECT_FALSE(v.inconclusive);
  // The diagnosis is a replay mismatch on the second read (under the only
  // order satisfying the first).
  EXPECT_NE(v.explanation.find("does not match the replay"),
            std::string::npos)
      << v.explanation;
  EXPECT_FALSE(v.counterexample.empty());
  // Each read alone (with both writes) is satisfiable; the cycle needs
  // both, though minimization may then shed the optional open writes.
  std::vector<ClientOp> one = {ops[0], ops[1], ops[2]};
  EXPECT_TRUE(AuditOps(one, LinOptions()).ok);
  std::vector<ClientOp> other = {ops[0], ops[1], ops[3]};
  EXPECT_TRUE(AuditOps(other, LinOptions()).ok);
}

TEST(Linearize, NonMonotonicReadCaught) {
  // Same client's reads go backwards. Under full linearizability this is
  // a stale read; the dedicated session mode flags exactly the pair.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(AckedWrite(0, 20, 30, 2, Update::Total({'b'})));
  ops.push_back(OkRead(1, 40, 50, 2, {'b'}));
  ops.push_back(OkRead(1, 60, 70, 1, {'a'}));
  AuditOptions mono = LinOptions();
  mono.mode = AuditMode::kMonotonicReads;
  AuditVerdict v = AuditOps(ops, mono);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.explanation.find("monotonic-reads violation"),
            std::string::npos)
      << v.explanation;
  ASSERT_EQ(v.counterexample.size(), 2u);
  EXPECT_EQ(v.counterexample[0].version, 2u);
  EXPECT_EQ(v.counterexample[1].version, 1u);
  // The full linearizability mode rejects it too.
  EXPECT_FALSE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, ReadYourWritesViolationCaught) {
  // A client's read, invoked after its own write was acked as v3,
  // observes v1.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(7, 0, 10, 3, Update::Total({'c'})));
  ops.push_back(OkRead(7, 20, 30, 1, {'a'}));
  AuditOptions ryw = LinOptions();
  ryw.mode = AuditMode::kReadYourWrites;
  AuditVerdict v = AuditOps(ops, ryw);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.explanation.find("read-your-writes violation"),
            std::string::npos)
      << v.explanation;
  ASSERT_EQ(v.counterexample.size(), 2u);
  EXPECT_EQ(v.counterexample[0].kind, ClientOp::Kind::kWrite);
  EXPECT_EQ(v.counterexample[1].kind, ClientOp::Kind::kRead);
  // Another client's stale read is NOT a RYW violation (session-local).
  std::vector<ClientOp> other;
  other.push_back(AckedWrite(7, 0, 10, 3, Update::Total({'c'})));
  other.push_back(OkRead(8, 20, 30, 1, {'a'}));
  EXPECT_TRUE(AuditOps(other, ryw).ok);
}

// ---------------------------------------------------------------------------
// Session modes, passing cases.

TEST(Linearize, SessionModesAcceptRelaxedCrossClientReads) {
  // Cross-client staleness is fine under session guarantees.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(AckedWrite(0, 20, 30, 2, Update::Total({'b'})));
  ops.push_back(OkRead(1, 40, 50, 1, {'a'}));  // Stale but another client.
  AuditOptions session = LinOptions();
  session.mode = AuditMode::kSession;
  EXPECT_TRUE(AuditOps(ops, session).ok);
  EXPECT_FALSE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, ReadYourWritesHonorsConcurrentOwnWrite) {
  // The client's own write had not returned when the read was invoked:
  // no obligation yet.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(7, 0, 50, 3, Update::Total({'c'})));
  ops.push_back(OkRead(7, 20, 30, 1, {'a'}));
  AuditOptions ryw = LinOptions();
  ryw.mode = AuditMode::kReadYourWrites;
  EXPECT_TRUE(AuditOps(ops, ryw).ok);
}

// ---------------------------------------------------------------------------
// Version pinning and real-time order.

TEST(Linearize, DuplicateAckedVersionCaught) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(AckedWrite(1, 0, 10, 1, Update::Total({'b'})));
  AuditVerdict v = AuditOps(ops, LinOptions());
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.explanation.find("acked version"), std::string::npos)
      << v.explanation;
}

TEST(Linearize, WriteRealTimeOrderEnforced) {
  // v2 returned before v1 was invoked: the serial order (v1 then v2)
  // contradicts real time.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 2, Update::Total({'b'})));
  ops.push_back(AckedWrite(1, 20, 30, 1, Update::Total({'a'})));
  EXPECT_FALSE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, VersionGapCaught) {
  // Acked v1 and v3 with no write that could fill slot 2.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(0, {'a'})));
  ops.push_back(AckedWrite(0, 19, 20, 3, Update::Partial(0, {'b'})));
  AuditVerdict v = AuditOps(ops, LinOptions());
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.inconclusive);
}

TEST(Linearize, ReadOfUnknownVersionCaught) {
  std::vector<ClientOp> ops;
  ops.push_back(OkRead(1, 1, 2, 4, {'x'}));
  AuditVerdict v = AuditOps(ops, LinOptions());
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.inconclusive);
}

// ---------------------------------------------------------------------------
// Partial-write and ranged-read semantics.

TEST(Linearize, PartialWriteReplayByteExact) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Partial(0, {'a', 'b'})));
  ops.push_back(AckedWrite(0, 20, 30, 2, Update::Partial(1, {'X'})));
  ops.push_back(OkRead(1, 40, 50, 2, {'a', 'X'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
  // Un-patched bytes are a violation even though the version is right.
  ops.back() = OkRead(1, 40, 50, 2, {'a', 'b'});
  AuditVerdict v = AuditOps(ops, LinOptions());
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.explanation.find("does not match the replay"),
            std::string::npos)
      << v.explanation;
}

TEST(Linearize, ZeroLengthPartialBumpsVersionOnly) {
  std::vector<ClientOp> ops;
  // A zero-length patch at offset 3 grows the object zero-filled.
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Partial(3, {})));
  ops.push_back(OkRead(1, 20, 30, 1, {0, 0, 0}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, ReplayRespectsInitialValue) {
  // A partial write lands on the initial contents, not on empty bytes.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(1, {'X'})));
  ops.push_back(OkRead(1, 12, 13, 1, {'a', 'X', 'c'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions({'a', 'b', 'c'})).ok);
  EXPECT_FALSE(AuditOps(ops, LinOptions({'q', 'q', 'q'})).ok);
}

TEST(Linearize, TotalUpdateReplacesLongerInitialValue) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Total({'n', 'e', 'w'})));
  ops.push_back(OkRead(1, 12, 13, 1, {'n', 'e', 'w'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions({'o', 'l', 'd', '!'})).ok);
}

TEST(Linearize, AdjacentPartialRangesCompose) {
  // [0,2) then [2,4): adjacent but disjoint; both survive in the replay.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(0, {'a', 'b'})));
  ops.push_back(AckedWrite(0, 19, 20, 2, Update::Partial(2, {'c', 'd'})));
  ops.push_back(OkRead(1, 25, 26, 2, {'a', 'b', 'c', 'd'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, OverlappingPartialsLastWriterWinsOnTheOverlap) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(0, {'x', 'x', 'x'})));
  ops.push_back(AckedWrite(0, 19, 20, 2, Update::Partial(1, {'y'})));
  ops.push_back(OkRead(1, 25, 26, 2, {'x', 'y', 'x'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
  // The same read pretending the overlap kept v1's byte.
  ops.back() = OkRead(1, 25, 26, 2, {'x', 'x', 'x'});
  EXPECT_FALSE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, ZeroLengthPartialKeepsPriorContents) {
  // A zero-length update changes no bytes but still takes a version slot;
  // a read of that version sees the prior contents.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(0, {'a'})));
  ops.push_back(AckedWrite(0, 19, 20, 2, Update::Partial(0, {})));
  ops.push_back(OkRead(1, 25, 26, 2, {'a'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, PartialBeyondEndZeroFillsTheGap) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(4, {'z'})));
  ops.push_back(OkRead(1, 12, 13, 1, {'a', 'b', 0, 0, 'z'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions({'a', 'b'})).ok);
}

TEST(Linearize, SnapshotWritesInterleavedWithPartialsReplayInOrder) {
  // partial, then a whole-object write, then another partial: the total
  // write wipes the first partial, the second lands on top of it, and
  // reads of every intermediate version check out.
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(0, {'p'})));
  ops.push_back(
      AckedWrite(0, 19, 20, 2, Update::Total({'s', 'n', 'a', 'p'})));
  ops.push_back(AckedWrite(0, 29, 30, 3, Update::Partial(1, {'X'})));
  ops.push_back(OkRead(1, 12, 13, 1, {'p'}));
  ops.push_back(OkRead(1, 22, 23, 2, {'s', 'n', 'a', 'p'}));
  ops.push_back(OkRead(1, 32, 33, 3, {'s', 'X', 'a', 'p'}));
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);

  // A read of the post-snapshot version that still shows the
  // pre-snapshot partial is a replay violation.
  std::vector<ClientOp> bad;
  bad.push_back(AckedWrite(0, 9, 10, 1, Update::Partial(0, {'p'})));
  bad.push_back(
      AckedWrite(0, 19, 20, 2, Update::Total({'s', 'n', 'a', 'p'})));
  bad.push_back(OkRead(1, 22, 23, 2, {'p', 'n', 'a', 'p'}));
  EXPECT_FALSE(AuditOps(bad, LinOptions()).ok);
}

TEST(Linearize, RangedReadObservesSlice) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a', 'b', 'c'})));
  ClientOp ranged = OkRead(1, 20, 30, 1, {'b', 'c'});
  ranged.read_full = false;
  ranged.read_offset = 1;
  ops.push_back(ranged);
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
  // Same slice with wrong bytes is a violation.
  ops.back().data = {'b', 'x'};
  EXPECT_FALSE(AuditOps(ops, LinOptions()).ok);
}

TEST(Linearize, RangedReadBeyondSizeSeesZeros) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ClientOp ranged = OkRead(1, 20, 30, 1, {0, 0});
  ranged.read_full = false;
  ranged.read_offset = 5;
  ops.push_back(ranged);
  EXPECT_TRUE(AuditOps(ops, LinOptions()).ok);
}

// ---------------------------------------------------------------------------
// Budget, minimization bounds, and the recorder round-trip.

TEST(Linearize, BudgetExhaustionIsInconclusive) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(OkRead(1, 20, 30, 0, {'i'}));
  AuditOptions o = LinOptions({'i'});
  o.max_states = 0;
  AuditVerdict v = AuditOps(ops, o);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(v.inconclusive);
  EXPECT_NE(v.ToString().find("INCONCLUSIVE"), std::string::npos);
}

TEST(Linearize, MinimizationCanBeDisabled) {
  std::vector<ClientOp> ops;
  ops.push_back(AckedWrite(0, 0, 10, 1, Update::Total({'a'})));
  ops.push_back(AckedWrite(0, 20, 30, 2, Update::Total({'b'})));
  ops.push_back(OkRead(1, 40, 50, 1, {'a'}));
  AuditOptions o = LinOptions();
  o.minimize_counterexample = false;
  AuditVerdict v = AuditOps(ops, o);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.counterexample.size(), 3u);  // The whole sub-history.
}

TEST(Linearize, RecorderOpenIntervalLifecycle) {
  ClientHistory h;
  uint64_t w = h.InvokeWrite(0, 0, Update::Total({'a'}), 5);
  uint64_t r = h.InvokeRead(1, 0, 6);
  EXPECT_FALSE(h.settled(w));
  // Abandon wins over a late response: the client never saw the ack.
  h.Abandon(w, 105);
  h.ReturnWrite(w, 120, 1);
  EXPECT_EQ(h.ops()[w].outcome, ClientOp::Outcome::kOpen);
  // An indefinite failure also stays open.
  h.Fail(r, 110, /*definite=*/false);
  EXPECT_EQ(h.ops()[r].outcome, ClientOp::Outcome::kOpen);
  // Both open ops may have landed or not: any read version 0/1 works.
  ClientHistory h2;
  h2.InvokeWrite(0, 0, Update::Total({'a'}), 5);
  AuditVerdict v = AuditHistory(h2, LinOptions());
  EXPECT_TRUE(v.ok);
}

TEST(Linearize, JsonlRoundTripPreservesVerdict) {
  ClientHistory h;
  uint64_t w1 = h.InvokeWrite(0, 0, Update::Partial(1, {'b'}), 0);
  h.ReturnWrite(w1, 10, 1);
  uint64_t w2 = h.InvokeWrite(1, 3, Update::Total({'x', 'y'}), 20);
  h.Abandon(w2, 90);
  uint64_t r1 = h.InvokeRead(2, 3, 30);
  h.ReturnRead(r1, 40, 1, {0, 'b'});
  uint64_t r2 = h.InvokeRead(3, 3, 50);
  h.Fail(r2, 60, /*definite=*/true);

  std::string jsonl = h.ToJsonl();
  ClientHistory parsed;
  ASSERT_TRUE(ClientHistory::FromJsonl(jsonl, &parsed));
  ASSERT_EQ(parsed.ops().size(), h.ops().size());
  for (size_t i = 0; i < h.ops().size(); ++i) {
    const ClientOp& a = h.ops()[i];
    const ClientOp& b = parsed.ops()[i];
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.invoked_at, b.invoked_at);
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.update.total, b.update.total);
    EXPECT_EQ(a.update.offset, b.update.offset);
    EXPECT_EQ(a.update.bytes, b.update.bytes);
    EXPECT_EQ(a.data, b.data);
  }
  EXPECT_EQ(AuditHistory(h, LinOptions()).ok,
            AuditHistory(parsed, LinOptions()).ok);
}

}  // namespace
}  // namespace dcp::analysis
