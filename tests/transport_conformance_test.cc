// Cross-backend conformance: the same scripted client exchange must
// push the same protocol-visible message sequence through the transport
// seam on the deterministic simulator and on the real socket backend.
// Sequences are compared per sender (each sender's outbound stream is
// totally ordered on both backends; cross-sender interleaving is
// backend-specific scheduling, not protocol behavior).
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/socket_cluster.h"
#include "protocol/cluster.h"
#include "protocol/deployment.h"
#include "runtime/transport.h"
#include "storage/versioned_object.h"

namespace dcp::harness {
namespace {

using storage::Update;

/// Per-sender outbound (dst, kind, type) sequences, recorded at the
/// transport seam's send tap. Mutex-guarded: the socket backend taps
/// from worker threads.
class SendRecorder {
 public:
  rt::SendTap Tap() {
    return [this](const net::Message& msg) {
      std::ostringstream entry;
      entry << "->" << msg.dst << " kind=" << static_cast<int>(msg.kind)
            << " " << msg.type.str();
      std::lock_guard<std::mutex> lock(mu_);
      by_sender_[msg.src].push_back(entry.str());
    };
  }

  std::map<NodeId, std::vector<std::string>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(by_sender_);
  }

 private:
  std::mutex mu_;
  std::map<NodeId, std::vector<std::string>> by_sender_;
};

constexpr uint32_t kNodes = 3;
const std::vector<uint8_t> kInitial = {0, 0, 0, 0};

/// The scripted exchange: total write at 0, read at 1, partial write at
/// 2, read-back at 0. Each step is followed by RunFor(kQuiesce), so
/// in-flight unlock and propagation traffic drains before the next
/// operation starts — otherwise cross-operation interleaving would differ
/// by backend. One function for both backends: the blocking calls and
/// RunFor are protocol::Deployment's.
constexpr rt::Time kQuiesce = 500;

void RunScript(protocol::Deployment& cluster) {
  auto w1 = cluster.WriteSync(0, 0, Update::Total({1, 2, 3, 4}));
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  cluster.RunFor(kQuiesce);
  auto r1 = cluster.ReadSync(1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->data, (std::vector<uint8_t>{1, 2, 3, 4}));
  cluster.RunFor(kQuiesce);
  auto w2 = cluster.WriteSync(2, 0, Update::Partial(1, {9}));
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  cluster.RunFor(kQuiesce);
  auto r2 = cluster.ReadSync(0);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->data, (std::vector<uint8_t>{1, 9, 3, 4}));
  cluster.RunFor(kQuiesce);
}

std::map<NodeId, std::vector<std::string>> RunOnSimulator() {
  SendRecorder recorder;
  protocol::ClusterOptions options;
  options.num_nodes = kNodes;
  options.coterie = protocol::CoterieKind::kMajority;
  options.initial_value = kInitial;
  protocol::Cluster cluster(options);
  cluster.network().set_send_tap(recorder.Tap());
  RunScript(cluster);
  return recorder.Take();
}

std::map<NodeId, std::vector<std::string>> RunOnSockets() {
  SendRecorder recorder;
  SocketClusterOptions options;
  options.num_nodes = kNodes;
  options.coterie = protocol::CoterieKind::kMajority;
  options.initial_value = kInitial;
  SocketCluster cluster(options);
  cluster.transport().set_send_tap(recorder.Tap());
  Status started = cluster.Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  RunScript(cluster);
  cluster.Stop();
  return recorder.Take();
}

TEST(TransportConformanceTest, PerSenderMessageSequencesMatchAcrossBackends) {
  auto sim = RunOnSimulator();
  if (::testing::Test::HasFailure()) return;
  auto sockets = RunOnSockets();
  if (::testing::Test::HasFailure()) return;

  // Both backends saw traffic from the same set of senders.
  std::vector<NodeId> sim_senders, socket_senders;
  for (const auto& [src, _] : sim) sim_senders.push_back(src);
  for (const auto& [src, _] : sockets) socket_senders.push_back(src);
  EXPECT_EQ(sim_senders, socket_senders);

  for (const auto& [src, sim_seq] : sim) {
    auto it = sockets.find(src);
    if (it == sockets.end()) continue;  // Already reported above.
    EXPECT_EQ(sim_seq, it->second)
        << "sender " << src
        << ": outbound protocol sequence diverges between backends";
  }
}

}  // namespace
}  // namespace dcp::harness
