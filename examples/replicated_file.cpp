// Replicated file: the workload the paper's partial-write machinery is
// built for ("File systems are an example of such systems", Section 1).
//
// A 64 KiB "file" is replicated on 12 nodes. Writers on different nodes
// patch disjoint 512-byte blocks — partial writes — while replicas that
// miss a write are marked stale and caught up asynchronously by the
// propagation protocol, never blocking the writers. The example prints
// per-phase traffic so the asynchronous-update-propagation story is
// visible, then verifies every replica converged to the same contents.
//
//   ./build/examples/replicated_file

#include <cstdio>
#include <vector>

#include "protocol/cluster.h"

namespace {

constexpr uint32_t kNodes = 12;
constexpr uint64_t kFileSize = 64 * 1024;
constexpr uint64_t kBlockSize = 512;

std::vector<uint8_t> Block(uint8_t fill) {
  return std::vector<uint8_t>(kBlockSize, fill);
}

}  // namespace

int main() {
  using namespace dcp;
  using namespace dcp::protocol;

  ClusterOptions options;
  options.num_nodes = kNodes;
  options.coterie = CoterieKind::kGrid;
  options.seed = 99;
  options.initial_value = std::vector<uint8_t>(kFileSize, 0);
  Cluster cluster(options);

  std::printf("replicated file: %llu KiB on %u nodes (grid %s)\n\n",
              static_cast<unsigned long long>(kFileSize / 1024), kNodes,
              cluster.rule().Name().c_str());

  // Phase 1: 24 block writes from rotating writers. Each touches only a
  // write quorum (~6 of 12 replicas); replicas that answered with stale
  // data get a desired version number instead of the payload.
  int committed = 0;
  for (int i = 0; i < 24; ++i) {
    NodeId writer = static_cast<NodeId>(i % kNodes);
    uint64_t offset = (static_cast<uint64_t>(i) * kBlockSize) % kFileSize;
    auto w = cluster.WriteSyncRetry(
        writer, Update::Partial(offset, Block(static_cast<uint8_t>(i + 1))));
    if (w.ok()) ++committed;
    // Writers do NOT wait for propagation: it is asynchronous.
  }
  const obs::MetricsRegistry& m = cluster.metrics();
  std::printf("phase 1: %d/24 block writes committed\n", committed);
  std::printf("  write-path messages:  lock=%llu 2pc=%llu\n",
              static_cast<unsigned long long>(
                  m.CounterValue("net.type.lock.sent")),
              static_cast<unsigned long long>(
                  m.CounterValue("net.type.2pc-prepare.sent") +
                  m.CounterValue("net.type.2pc-commit.sent")));
  uint32_t stale_now = 0;
  for (uint32_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).store().stale()) ++stale_now;
  }
  std::printf("  replicas currently stale: %u\n\n", stale_now);

  // Phase 2: let the propagation protocol drain. Good replicas offer
  // missing updates to the stale ones; "already-recovering" de-dupes
  // concurrent offers.
  uint64_t offers_before = m.CounterValue("net.type.prop-offer.sent");
  cluster.RunFor(5000);
  uint64_t offers_after = m.CounterValue("net.type.prop-offer.sent");
  std::printf("phase 2: propagation drained (%llu offers total, %llu during "
              "drain)\n",
              static_cast<unsigned long long>(offers_after),
              static_cast<unsigned long long>(offers_after - offers_before));

  // Phase 3: verify convergence — every replica identical, none stale.
  uint64_t fingerprint = cluster.node(0).store().object().Fingerprint();
  bool converged = true;
  for (uint32_t i = 0; i < kNodes; ++i) {
    const auto& store = cluster.node(i).store();
    if (store.stale() ||
        store.object().Fingerprint() != fingerprint) {
      converged = false;
      std::printf("  node %u diverged: %s\n", i,
                  store.DebugString().c_str());
    }
  }
  std::printf("phase 3: %s (version %llu everywhere)\n",
              converged ? "all replicas converged" : "DIVERGENCE",
              static_cast<unsigned long long>(
                  cluster.node(0).store().version()));

  // Phase 4: a reader validates the file contents block by block.
  auto r = cluster.ReadSyncRetry(7, 0);
  if (!r.ok()) {
    std::printf("read failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  int good_blocks = 0;
  for (int i = 0; i < 24; ++i) {
    uint64_t offset = (static_cast<uint64_t>(i) * kBlockSize) % kFileSize;
    if (r->data[offset] == static_cast<uint8_t>(i + 1)) ++good_blocks;
  }
  std::printf("phase 4: reader sees %d/24 blocks with final contents\n",
              good_blocks);

  Status history = cluster.CheckHistory();
  std::printf("\nhistory check: %s\n", history.ToString().c_str());
  return converged && history.ok() ? 0 : 1;
}
