#include "harness/socket_cluster.h"

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "protocol/wire_codec.h"

namespace dcp::harness {

namespace {

/// Real-time budget for one blocking client call, in ms. Far above any
/// loopback round trip; hitting it means the protocol wedged, and the
/// caller gets kTimedOut instead of a hung test.
constexpr double kOpTimeoutMs = 20000.0;

}  // namespace

SocketCluster::SocketCluster(SocketClusterOptions options)
    : Deployment(options.num_nodes, options.num_objects, options.sharded,
                 options.replication_factor, options.placement_seed,
                 options.coterie, options.initial_value,
                 options.write_options, /*record_history=*/false),
      transport_({.num_nodes = options.num_nodes,
                  .num_workers = options.num_workers,
                  .codec = protocol::MakeWireCodec()}) {
  BuildNodes(&transport_,
             [&options](NodeId) { return options.node_options; });
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

void SocketCluster::RunFor(rt::Time duration) {
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(duration));
}

Status SocketCluster::Await(NodeId at, Call call, const char* what) {
  // The promise lives in the posted closure, so a call completing after
  // the budget sets an orphaned promise, not a dead frame's.
  auto completed = std::make_shared<std::promise<void>>();
  std::future<void> done = completed->get_future();
  transport_.runtime(at)->Schedule(0, [call = std::move(call), completed] {
    call([completed] { completed->set_value(); });
  });
  const auto budget = std::chrono::duration<double, std::milli>(kOpTimeoutMs);
  if (done.wait_for(budget) != std::future_status::ready) {
    return Status::TimedOut(std::string("socket ") + what +
                            " exceeded the harness budget");
  }
  return Status::OK();
}

}  // namespace dcp::harness
