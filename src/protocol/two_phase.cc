#include "protocol/two_phase.h"

#include <memory>
#include <utility>
#include <vector>

#include "net/rpc.h"

namespace dcp::protocol {

using net::MakePayload;

namespace {

/// Trace-span correlation id for a transaction: the lock owner is already
/// globally unique, so fold it into one word the same way RPC ids are.
uint64_t TxSpanId(const LockOwner& tx) {
  return (static_cast<uint64_t>(tx.coordinator) << 40) | tx.operation_id;
}

/// A phase-2 request (CommitRequest or AbortRequest) for `tx`.
template <typename Phase2>
net::PayloadPtr Phase2Request(const LockOwner& tx,
                              std::vector<uint64_t> forget) {
  auto request = std::make_shared<Phase2>();
  request->owner = tx;
  request->forget = std::move(forget);
  return request;
}

}  // namespace

void TwoPhaseCommit::Run(
    ReplicaNode* coordinator, const LockOwner& tx,
    std::map<NodeId, StagedAction> actions, Done done,
    std::map<NodeId, std::vector<ObjectStateTuple>> expect) {
  NodeSet participants;
  for (const auto& [node, action] : actions) participants.Insert(node);

  coordinator->BeginCoordinatedTx(tx);

  rt::Runtime* sim = coordinator->runtime();
  sim->metrics().counter("twopc.started")->Increment();
  sim->tracer().BeginSpan(
      "2pc", "2pc.prepare", tx.coordinator, TxSpanId(tx),
      {{"participants", std::to_string(participants.Size())}});

  // Phase 1: prepare. Each participant gets its own action, so this is a
  // per-node Call loop rather than a MulticastGather.
  struct State {
    ReplicaNode* coordinator;
    LockOwner tx;
    NodeSet participants;
    Done done;
    uint32_t expected = 0;
    uint32_t received = 0;
    bool all_prepared = true;
    Status first_failure;
  };
  auto state = std::make_shared<State>();
  state->coordinator = coordinator;
  state->tx = tx;
  state->participants = participants;
  state->done = std::move(done);
  state->expected = participants.Size();

  auto run_phase2 = [state](TxOutcome outcome) {
    rt::Runtime* simulator = state->coordinator->runtime();
    const bool committed = outcome == TxOutcome::kCommitted;
    const uint64_t span_id = TxSpanId(state->tx);
    const char* phase2_span = committed ? "2pc.commit" : "2pc.abort";
    simulator->metrics()
        .counter(committed ? "twopc.committed" : "twopc.aborted")
        ->Increment();
    obs::EventTracer& tracer = simulator->tracer();
    tracer.EndSpan("2pc", "2pc.prepare", state->tx.coordinator, span_id,
                   {{"outcome", committed ? "commit" : "abort"}});
    tracer.Instant("2pc", "2pc.decide", state->tx.coordinator,
                   {{"outcome", committed ? "commit" : "abort"}});
    tracer.BeginSpan("2pc", phase2_span, state->tx.coordinator, span_id, {});

    // Each participant's request carries the forget notices queued for
    // it.
    auto request_for = [state, committed](NodeId node) {
      std::vector<uint64_t> forget =
          state->coordinator->TakeForgetNotices(node);
      return committed
                 ? Phase2Request<CommitRequest>(state->tx, std::move(forget))
                 : Phase2Request<AbortRequest>(state->tx, std::move(forget));
    };
    net::MulticastGatherEach(
        &state->coordinator->rpc(), state->participants,
        committed ? msg::kCommit : msg::kAbort, request_for,
        [state, outcome, phase2_span, span_id](net::GatherResult g) {
          ReplicaNode* node = state->coordinator;
          node->runtime()->tracer().EndSpan(
              "2pc", phase2_span, state->tx.coordinator, span_id, {});
          // Every participant acknowledged after logging its resolution,
          // so none can still ask about the transaction: forget it.
          // Unreachable participants resolve via cooperative termination,
          // which needs the outcome kept; it is decided either way.
          if (g.Succeeded() == state->participants) {
            node->ForgetCoordinatedTx(state->tx, state->participants);
          }
          if (outcome == TxOutcome::kCommitted) {
            state->done(Status::OK());
          } else {
            Status s = state->first_failure.ok()
                           ? Status::Aborted("2pc prepare failed")
                           : state->first_failure;
            // A participant whose state moved since the action was
            // computed (StaleData) lets the caller recompute it.
            std::string why = "2pc aborted: " + s.ToString();
            state->done(s.IsStaleData() ? Status::StaleData(std::move(why))
                                        : Status::Aborted(std::move(why)));
          }
        });
  };

  auto finish_phase1 = [state, run_phase2] {
    TxOutcome outcome =
        state->all_prepared ? TxOutcome::kCommitted : TxOutcome::kAborted;
    // The commit point: log the decision before any phase-2 message.
    // With durability on, phase 2 waits until the decision record is on
    // disk; otherwise the continuation runs inline.
    state->coordinator->DecideCoordinatedTxDurable(
        state->tx, outcome, [run_phase2, outcome] { run_phase2(outcome); });
  };

  if (state->expected == 0) {
    coordinator->runtime()->Schedule(0, [finish_phase1] { finish_phase1(); });
    return;
  }

  for (const auto& [node, action] : actions) {
    auto prepare = std::make_shared<PrepareRequest>();
    prepare->owner = tx;
    prepare->action = action;
    prepare->participants = participants;
    if (auto polled = expect.find(node); polled != expect.end()) {
      prepare->expect = std::move(polled->second);
    }
    coordinator->rpc().Call(
        node, msg::kPrepare, prepare,
        [state, finish_phase1](net::RpcResult r) {
          ++state->received;
          if (!r.ok()) {
            state->all_prepared = false;
            if (state->first_failure.ok()) {
              state->first_failure =
                  r.call_failed() ? r.transport : r.app;
            }
          }
          if (state->received == state->expected) finish_phase1();
        });
  }
}

}  // namespace dcp::protocol
