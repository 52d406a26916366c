#include "protocol/epoch_daemon.h"

#include <utility>

#include "net/rpc.h"
#include "protocol/operations.h"
#include "util/logging.h"

namespace dcp::protocol {

using net::MakePayload;
using net::PayloadPtr;

EpochDaemon::EpochDaemon(ReplicaNode* node, EpochDaemonOptions options)
    : node_(node), options_(options) {
  // Everyone initially assumes the highest-named replica leads.
  NodeSet all = node_->all_nodes();
  believed_leader_ = all.NthMember(all.Size() - 1);
  last_leader_heard_ = node_->runtime()->Now();

  obs::MetricsRegistry& m = node_->runtime()->metrics();
  const std::string p = "daemon." + std::to_string(node_->self()) + ".";
  counters_.checks_run = m.counter(p + "checks_run");
  counters_.checks_failed = m.counter(p + "checks_failed");
  counters_.elections_started = m.counter(p + "elections_started");
  counters_.leaderships_assumed = m.counter(p + "leaderships_assumed");

  // Duplicate-safe: daemon extension handlers answer from current state
  // (epoch polls, election probes) — re-execution returns the same view,
  // and the runtime reply cache suppresses network-level duplicates
  // anyway.  // dcp-lint: rpc-dedup(idempotent)
  node_->set_extension_handler(
      [this](NodeId from, const std::string& type, const PayloadPtr& req) {
        return HandleExtension(from, type, req);
      });

  // Stagger ticks by node id so daemons do not fire in lockstep.
  rt::Time stagger = static_cast<rt::Time>(node_->self()) *
                      (options_.check_interval / (all.Size() + 1));
  ticker_ = std::make_unique<rt::PeriodicTimer>(
      node_->runtime(), options_.check_interval + stagger,
      options_.check_interval, [this] { Tick(); });
}

EpochDaemon::~EpochDaemon() = default;

void EpochDaemon::OnCrash() {
  check_in_flight_ = false;
  campaigning_ = false;
}

void EpochDaemon::OnRecover() {
  // Re-learn who leads; campaigning immediately is harmless.
  last_leader_heard_ = node_->runtime()->Now() - options_.leader_timeout;
}

void EpochDaemon::Tick() {
  if (!node_->rpc().transport()->IsUp(node_->self())) return;
  rt::Time now = node_->runtime()->Now();

  if (believed_leader_ == node_->self()) {
    // Leader duties: announce and run the epoch check.
    auto announce = std::make_shared<LeaderAnnouncement>();
    announce->leader = node_->self();
    NodeSet others = node_->all_nodes();
    others.Erase(node_->self());
    net::MulticastGather(&node_->rpc(), others, msg::kLeader, announce,
                         [](net::GatherResult) {});
    if (!check_in_flight_) {
      check_in_flight_ = true;
      StartEpochCheck(node_, /*object=*/0, [this](Status s) {
        check_in_flight_ = false;
        if (s.ok()) {
          counters_.checks_run->Increment();
        } else {
          counters_.checks_failed->Increment();
        }
      });
    }
    return;
  }

  if (now - last_leader_heard_ >= options_.leader_timeout) Campaign();
}

void EpochDaemon::Campaign() {
  if (campaigning_) return;
  campaigning_ = true;
  counters_.elections_started->Increment();
  node_->runtime()->tracer().Instant("epoch", "election.start",
                                       node_->self(), {});

  // Bully: any live higher-named node outranks us.
  NodeSet higher;
  for (NodeId n : node_->all_nodes()) {
    if (n > node_->self()) higher.Insert(n);
  }
  if (higher.Empty()) {
    campaigning_ = false;
    AssumeLeadership();
    return;
  }
  net::MulticastGather(
      &node_->rpc(), higher, msg::kElection, MakePayload<ElectionRequest>(),
      [this](net::GatherResult g) {
        campaigning_ = false;
        for (const auto& [node, r] : g.replies) {
          if (r.ok()) {
            // A higher node is alive; it will campaign itself (it got our
            // election request). Back off for one timeout period.
            last_leader_heard_ = node_->runtime()->Now();
            return;
          }
        }
        AssumeLeadership();
      });
}

void EpochDaemon::AssumeLeadership() {
  if (believed_leader_ == node_->self()) return;
  believed_leader_ = node_->self();
  counters_.leaderships_assumed->Increment();
  node_->runtime()->tracer().Instant("epoch", "election.leader",
                                       node_->self(), {});
  auto announce = std::make_shared<LeaderAnnouncement>();
  announce->leader = node_->self();
  NodeSet others = node_->all_nodes();
  others.Erase(node_->self());
  net::MulticastGather(&node_->rpc(), others, msg::kLeader, announce,
                       [](net::GatherResult) {});
}

Result<PayloadPtr> EpochDaemon::HandleExtension(NodeId from,
                                                const std::string& type,
                                                const PayloadPtr& request) {
  if (type == msg::kElection) {
    // A lower-named node is campaigning; we outrank it, so we campaign
    // ourselves (possibly assuming leadership) after replying.
    (void)from;
    node_->runtime()->Schedule(0, [this] {
      if (!node_->rpc().transport()->IsUp(node_->self())) return;
      if (believed_leader_ != node_->self()) Campaign();
    });
    return PayloadPtr(MakePayload<ElectionResponse>());
  }
  if (type == msg::kLeader) {
    const auto& ann = net::As<LeaderAnnouncement>(request);
    if (ann.leader >= node_->self()) {
      believed_leader_ = ann.leader;
      last_leader_heard_ = node_->runtime()->Now();
    } else {
      // We outrank the claimant: contest.
      node_->runtime()->Schedule(0, [this] {
        if (!node_->rpc().transport()->IsUp(node_->self())) return;
        Campaign();
      });
    }
    return PayloadPtr(MakePayload<AckResponse>());
  }
  return Status::InvalidArgument("unknown extension request: " + type);
}

}  // namespace dcp::protocol
