#include "harness/workload.h"

#include <algorithm>
#include <string>
#include <utility>

#include "baseline/accessible_copies.h"
#include "baseline/dynamic_voting.h"
#include "baseline/static_protocol.h"

namespace dcp::harness {

using protocol::ReadOutcome;
using protocol::Update;
using protocol::WriteOutcome;

WorkloadDriver::WorkloadDriver(protocol::Cluster* cluster, Options options)
    // Stream root: the workload arrival/choice RNG is seeded from its
    // options, independent of the cluster's.  // dcp-lint: allow(raw-rng)
    : cluster_(cluster), options_(options), rng_(options.seed) {
  if (options_.key_distribution == Options::KeyDistribution::kZipfian) {
    zipf_ = std::make_unique<ZipfianGenerator>(
        std::max(1u, cluster_->options().num_objects),
        options_.zipfian_theta);
  }
  obs::MetricsRegistry& m = cluster_->metrics();
  write_counters_ = OpCounters{m.counter("workload.write.attempted"),
                               m.counter("workload.write.committed"),
                               m.counter("workload.write.failed"),
                               m.counter("workload.write.timed_out"),
                               m.histogram("workload.write.latency")};
  read_counters_ = OpCounters{m.counter("workload.read.attempted"),
                              m.counter("workload.read.committed"),
                              m.counter("workload.read.failed"),
                              m.counter("workload.read.timed_out"),
                              m.histogram("workload.read.latency")};
  state_ = std::make_shared<Shared>();
  ArmNext();
}

void WorkloadDriver::ArmNext() {
  double delay = rng_.Exponential(options_.arrival_rate);
  std::shared_ptr<Shared> state = state_;
  cluster_->simulator().Schedule(delay, [this, state] {
    if (state->stopped) return;
    Issue();
    ArmNext();
  });
}

NodeId WorkloadDriver::PickLiveCoordinator() {
  NodeSet up = cluster_->UpNodes();
  if (up.Empty()) return kInvalidNode;
  return up.NthMember(static_cast<uint32_t>(rng_.Uniform(up.Size())));
}

storage::ObjectId WorkloadDriver::PickObject() {
  // The uniform branch is the historical draw, byte-identical per seed.
  if (zipf_ == nullptr) {
    return static_cast<storage::ObjectId>(
        rng_.Uniform(std::max(1u, cluster_->options().num_objects)));
  }
  return static_cast<storage::ObjectId>(zipf_->Sample(rng_));
}

uint64_t WorkloadDriver::AcquireClient() {
  for (size_t i = 0; i < client_busy_.size(); ++i) {
    if (!client_busy_[i]) {
      client_busy_[i] = true;
      return i;
    }
  }
  client_busy_.push_back(true);
  return client_busy_.size() - 1;
}

void WorkloadDriver::FreeClient(uint64_t client) {
  if (client < client_busy_.size()) client_busy_[client] = false;
}

void WorkloadDriver::ArmTimeout(std::shared_ptr<OpState> op, bool is_write,
                                uint64_t op_id, uint64_t span_id,
                                NodeId coordinator) {
  if (options_.op_timeout <= 0) return;
  std::shared_ptr<Shared> state = state_;
  analysis::ClientHistory* history = options_.client_history;
  sim::Simulator* simp = &cluster_->simulator();
  obs::EventTracer* tracer = &cluster_->tracer();
  simp->Schedule(options_.op_timeout, [this, state, op, history, simp, tracer,
                                       is_write, op_id, span_id, coordinator] {
    if (op->settled) return;
    op->settled = true;  // A response landing later is ignored.
    if (history) history->Abandon(op_id, simp->Now());
    tracer->EndSpan("client", is_write ? "write" : "read",
                    static_cast<uint32_t>(coordinator), span_id,
                    {{"outcome", "abandoned"}});
    if (state->stopped) return;
    FreeClient(op->client);
    (is_write ? write_counters_ : read_counters_).timed_out->Increment();
  });
}

void WorkloadDriver::Issue() {
  NodeId coordinator = PickLiveCoordinator();
  if (coordinator == kInvalidNode) return;  // Whole cluster down.
  storage::ObjectId object = PickObject();
  double started = cluster_->simulator().Now();
  std::shared_ptr<Shared> state = state_;
  analysis::ClientHistory* history = options_.client_history;
  sim::Simulator* simp = &cluster_->simulator();
  obs::EventTracer* tracer = &cluster_->tracer();

  auto op = std::make_shared<OpState>();
  op->client = AcquireClient();
  uint64_t span_id = span_seq_++;

  if (rng_.Bernoulli(options_.write_fraction)) {
    write_counters_.attempted->Increment();

    Update update;
    switch (options_.stack) {
      case Stack::kDynamicCoterie:
      case Stack::kAccessibleCopies:
        update = Update::Partial(rng_.Uniform(options_.object_size),
                                 {uint8_t(counter_++)});
        break;
      case Stack::kStatic:
      case Stack::kDynamicVoting:
        update = Update::Total(
            std::vector<uint8_t>(options_.object_size, uint8_t(counter_++)));
        break;
    }
    uint64_t op_id =
        history ? history->InvokeWrite(op->client, object, update, started)
                : 0;
    tracer->BeginSpan("client", "write", static_cast<uint32_t>(coordinator),
                      span_id,
                      {{"object", std::to_string(object)},
                       {"client", std::to_string(op->client)}});

    // The history/tracer settlement runs even after Stop(): it only
    // touches objects that outlive the driver (captured by pointer), so
    // ops in flight at shutdown still settle instead of staying open.
    // Stats and client slots are driver state and stay behind the
    // `stopped` guard.
    auto write_done = [this, state, op, history, simp, tracer, started, op_id,
                       span_id, coordinator](Result<WriteOutcome> r) {
      if (op->settled) return;  // Abandoned: the client never saw this.
      op->settled = true;
      double now = simp->Now();
      if (history) {
        if (r.ok()) {
          history->ReturnWrite(op_id, now, r.value().version);
        } else {
          history->Fail(op_id, now, analysis::IsDefiniteFailure(r.status()));
        }
      }
      tracer->EndSpan("client", "write", static_cast<uint32_t>(coordinator),
                      span_id,
                      {{"outcome", r.ok() ? "ok" : r.status().ToString()}});
      if (state->stopped) return;
      FreeClient(op->client);
      double latency = now - started;
      if (r.ok()) {
        write_counters_.committed->Increment();
        write_counters_.latency->Observe(latency);
      } else {
        write_counters_.failed->Increment();
      }
    };

    switch (options_.stack) {
      case Stack::kDynamicCoterie:
        cluster_->Write(coordinator, object, update, write_done);
        break;
      case Stack::kStatic:
        baseline::StartStaticWrite(&cluster_->node(coordinator), update.bytes,
                                   write_done);
        break;
      case Stack::kDynamicVoting:
        baseline::StartDynamicVotingWrite(&cluster_->node(coordinator),
                                          update.bytes, write_done);
        break;
      case Stack::kAccessibleCopies:
        baseline::StartAccessibleWrite(&cluster_->node(coordinator), update,
                                       write_done);
        break;
    }
    ArmTimeout(op, /*is_write=*/true, op_id, span_id, coordinator);
  } else {
    read_counters_.attempted->Increment();
    uint64_t op_id =
        history ? history->InvokeRead(op->client, object, started) : 0;
    tracer->BeginSpan("client", "read", static_cast<uint32_t>(coordinator),
                      span_id,
                      {{"object", std::to_string(object)},
                       {"client", std::to_string(op->client)}});

    auto read_done = [this, state, op, history, simp, tracer, started, op_id,
                      span_id, coordinator](Result<ReadOutcome> r) {
      if (op->settled) return;  // Abandoned: the client never saw this.
      op->settled = true;
      double now = simp->Now();
      if (history) {
        if (r.ok()) {
          history->ReturnRead(op_id, now, r.value().version, r.value().data);
        } else {
          history->Fail(op_id, now, analysis::IsDefiniteFailure(r.status()));
        }
      }
      tracer->EndSpan("client", "read", static_cast<uint32_t>(coordinator),
                      span_id,
                      {{"outcome", r.ok() ? "ok" : r.status().ToString()}});
      if (state->stopped) return;
      FreeClient(op->client);
      double latency = now - started;
      if (r.ok()) {
        read_counters_.committed->Increment();
        read_counters_.latency->Observe(latency);
      } else {
        read_counters_.failed->Increment();
      }
    };

    switch (options_.stack) {
      case Stack::kDynamicCoterie:
        cluster_->Read(coordinator, object, read_done);
        break;
      case Stack::kStatic:
        baseline::StartStaticRead(&cluster_->node(coordinator), read_done);
        break;
      case Stack::kDynamicVoting:
        baseline::StartDynamicVotingRead(&cluster_->node(coordinator),
                                         read_done);
        break;
      case Stack::kAccessibleCopies:
        baseline::StartAccessibleRead(&cluster_->node(coordinator),
                                      read_done);
        break;
    }
    ArmTimeout(op, /*is_write=*/false, op_id, span_id, coordinator);
  }
}

}  // namespace dcp::harness
