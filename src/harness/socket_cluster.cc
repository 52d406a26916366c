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
  return t;
}

/// Real-time budget for one synchronous client operation, in ms. Far above
/// any loopback round trip; hitting it means the protocol wedged, and the
/// caller gets kTimedOut instead of a hung test.
constexpr double kOpTimeoutMs = 20000.0;

/// Posts `start(done)` onto `runtime` (protocol code must run on its node's
/// execution context) and blocks until `done` fires or kOpTimeoutMs
/// passes; then it returns TimedOut(`timeout`). The promise lives in the
/// posted closure (shared_ptr), so an operation completing late writes
/// into an orphaned promise, not a dead frame.
template <typename T, typename Start>
T PostAndWait(rt::Runtime* runtime, Start start, const char* timeout) {
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  runtime->Schedule(0, [start = std::move(start), promise]() mutable {
    start([promise](T r) { promise->set_value(std::move(r)); });
  });
  const auto budget = std::chrono::duration<double, std::milli>(kOpTimeoutMs);
  if (future.wait_for(budget) != std::future_status::ready) {
    return Status::TimedOut(timeout);
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
  protocol::ReplicaNode* node = nodes_[coordinator].get();
  protocol::WriteOptions write_options = options_.write_options;
  return PostAndWait<Result<WriteOutcome>>(
      transport_.runtime(coordinator),
      [node, object, update = std::move(update),
       write_options](protocol::WriteDone done) mutable {
        protocol::StartWrite(node, object, std::move(update), write_options,
                             /*history=*/nullptr, std::move(done));
      },
      "socket write exceeded the harness budget");
}

Result<ReadOutcome> SocketCluster::ReadSync(NodeId coordinator,
                                            storage::ObjectId object) {
  protocol::ReplicaNode* node = nodes_[coordinator].get();
  return PostAndWait<Result<ReadOutcome>>(
      transport_.runtime(coordinator),
      [node, object](protocol::ReadDone done) {
        protocol::StartRead(node, object, /*history=*/nullptr,
                            std::move(done));
      },
      "socket read exceeded the harness budget");
}

Status SocketCluster::CheckEpochSync(NodeId initiator,
                                     storage::ObjectId object) {
  protocol::ReplicaNode* node = nodes_[initiator].get();
  return PostAndWait<Status>(
      transport_.runtime(initiator),
      [node, object](protocol::EpochCheckDone done) {
        protocol::StartEpochCheck(node, object, std::move(done));
      },
      "socket epoch check exceeded the harness budget");
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
