#include "harness/socket_cluster.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "protocol/wire_codec.h"

namespace dcp::harness {

using protocol::ReadOutcome;
using protocol::WriteOutcome;

namespace {

rt::SocketTransportOptions TransportOptions(const SocketClusterOptions& o) {
  rt::SocketTransportOptions t;
  t.num_nodes = o.num_nodes;
  t.num_workers = o.num_workers;
  t.codec = protocol::MakeWireCodec();
  t.max_batch_frames = o.max_batch_frames;
  t.pool_buffers = o.pool_buffers;
  return t;
}

/// Blocks on `future` for the harness's per-op budget. The promise side
/// lives in the posted closure (shared_ptr), so a timed-out operation
/// completing late writes into an orphaned promise, not a dead frame.
template <typename T>
T AwaitOr(std::future<T> future, rt::Time timeout_ms, T on_timeout) {
  const auto budget = std::chrono::duration<double, std::milli>(timeout_ms);
  if (future.wait_for(budget) != std::future_status::ready) {
    return on_timeout;
  }
  return future.get();
}

/// Repeats `attempt()` while it fails with a lock conflict, up to
/// `max_attempts` times, sleeping 5 ms x attempt in between.
template <typename T, typename Attempt>
T RetryOnConflict(int max_attempts, Attempt attempt) {
  T result = Status::InvalidArgument("max_attempts must be >= 1");
  for (int i = 1; i <= max_attempts; ++i) {
    result = attempt();
    if (result.ok() || !result.status().IsConflict()) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(5L * i));
  }
  return result;
}

}  // namespace

SocketCluster::SocketCluster(SocketClusterOptions options)
    : options_(std::move(options)),
      rule_(protocol::MakeCoterieRule(options_.coterie)),
      transport_(TransportOptions(options_)) {
  std::vector<uint8_t> value = options_.initial_value;
  if (value.empty()) value = {0};
  const NodeSet all = NodeSet::Universe(options_.num_nodes);
  const uint32_t num_objects = std::max<uint32_t>(options_.num_objects, 1);
  if (options_.sharded) {
    table_ = std::make_unique<protocol::ObjectTable>(protocol::PlacementOptions{
        options_.num_nodes, num_objects, options_.replication_factor,
        options_.placement_seed});
  }
  const protocol::Catalog catalog =
      protocol::BuildCatalog(all, num_objects, table_.get());
  nodes_.reserve(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<protocol::ReplicaNode>(
        &transport_, NodeId{i}, all, rule_.get(), catalog, value,
        options_.node_options));
  }
}

SocketCluster::~SocketCluster() {
  // Stop the threads before any node is destroyed: a live worker may be
  // deep inside protocol code.
  transport_.Stop();
}

Status SocketCluster::Start() { return transport_.Start(); }

void SocketCluster::Stop() { transport_.Stop(); }

void SocketCluster::SetNodeUp(NodeId id, bool up) {
  transport_.SetNodeUp(id, up);
}

Result<WriteOutcome> SocketCluster::WriteSync(NodeId coordinator,
                                              storage::ObjectId object,
                                              storage::Update update) {
  auto promise = std::make_shared<std::promise<Result<WriteOutcome>>>();
  auto future = promise->get_future();
  protocol::ReplicaNode* node = nodes_[coordinator].get();
  protocol::WriteOptions write_options = options_.write_options;
  transport_.runtime(coordinator)
      ->Schedule(0, [node, object, update = std::move(update), write_options,
                     promise]() mutable {
        protocol::StartWrite(node, object, std::move(update), write_options,
                             /*history=*/nullptr,
                             [promise](Result<WriteOutcome> r) {
                               promise->set_value(std::move(r));
                             });
      });
  return AwaitOr<Result<WriteOutcome>>(
      std::move(future), options_.op_timeout_ms,
      Status::TimedOut("socket write exceeded the harness budget"));
}

Result<ReadOutcome> SocketCluster::ReadSync(NodeId coordinator,
                                            storage::ObjectId object) {
  auto promise = std::make_shared<std::promise<Result<ReadOutcome>>>();
  auto future = promise->get_future();
  protocol::ReplicaNode* node = nodes_[coordinator].get();
  transport_.runtime(coordinator)->Schedule(0, [node, object, promise] {
    protocol::StartRead(node, object, /*history=*/nullptr,
                        [promise](Result<ReadOutcome> r) {
                          promise->set_value(std::move(r));
                        });
  });
  return AwaitOr<Result<ReadOutcome>>(
      std::move(future), options_.op_timeout_ms,
      Status::TimedOut("socket read exceeded the harness budget"));
}

Status SocketCluster::CheckEpochSync(NodeId initiator,
                                     storage::ObjectId object) {
  auto promise = std::make_shared<std::promise<Status>>();
  auto future = promise->get_future();
  protocol::ReplicaNode* node = nodes_[initiator].get();
  transport_.runtime(initiator)->Schedule(0, [node, object, promise] {
    protocol::StartEpochCheck(
        node, object,
        [promise](Status s) { promise->set_value(std::move(s)); });
  });
  return AwaitOr<Status>(
      std::move(future), options_.op_timeout_ms,
      Status::TimedOut("socket epoch check exceeded the harness budget"));
}

Result<WriteOutcome> SocketCluster::WriteSyncRetry(NodeId coordinator,
                                                   storage::ObjectId object,
                                                   storage::Update update,
                                                   int max_attempts) {
  return RetryOnConflict<Result<WriteOutcome>>(
      max_attempts, [&] { return WriteSync(coordinator, object, update); });
}

Result<ReadOutcome> SocketCluster::ReadSyncRetry(NodeId coordinator,
                                                 storage::ObjectId object,
                                                 int max_attempts) {
  return RetryOnConflict<Result<ReadOutcome>>(
      max_attempts, [&] { return ReadSync(coordinator, object); });
}

}  // namespace dcp::harness
