// Quickstart: replicate a data item on 9 simulated nodes with the
// dynamic grid protocol, write and read it, kill a node, watch the epoch
// shrink, and recover.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "protocol/cluster.h"

namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Text(const std::vector<uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

}  // namespace

int main() {
  using namespace dcp;
  using namespace dcp::protocol;

  // 1. Deploy: 9 replicas arranged by the grid coterie rule (3x3).
  ClusterOptions options;
  options.num_nodes = 9;
  options.coterie = CoterieKind::kGrid;
  options.seed = 2024;
  options.initial_value = Bytes("hello, replicated world!");
  Cluster cluster(options);

  std::printf("Deployed %u replicas, coterie rule '%s'\n",
              cluster.num_nodes(), cluster.rule().Name().c_str());

  // 2. A partial write from node 0: patch bytes 7..16 in place. Only a
  //    write quorum (~2*sqrt(N) nodes) is contacted.
  auto w = cluster.WriteSyncRetry(0, Update::Partial(7, Bytes("DURABLE ")));
  if (!w.ok()) {
    std::printf("write failed: %s\n", w.status().ToString().c_str());
    return 1;
  }
  std::printf("write committed as version %llu\n",
              static_cast<unsigned long long>(w->version));

  // 3. Read from a different coordinator; the read quorum is guaranteed
  //    to intersect every write quorum, so it sees the new version.
  auto r = cluster.ReadSyncRetry(5, 0);
  std::printf("read from node 5: v%llu \"%s\"\n",
              static_cast<unsigned long long>(r->version),
              Text(r->data).c_str());

  // 4. Fail a node. Writes still succeed (HeavyProcedure), and an epoch
  //    check re-forms the epoch without the dead replica, restoring
  //    cheap quorum operation.
  std::printf("\ncrashing node 4...\n");
  cluster.Crash(4);
  Status s = cluster.CheckEpochSync(0);
  std::printf("epoch check: %s\n", s.ToString().c_str());
  std::printf("node 0 now in epoch %llu with members %s\n",
              static_cast<unsigned long long>(
                  cluster.node(0).store().epoch_number()),
              cluster.node(0).store().epoch_list().ToString().c_str());

  auto w2 = cluster.WriteSyncRetry(2, Update::Partial(0, Bytes("HELLO")));
  std::printf("write with node 4 down: %s (v%llu)\n",
              w2.ok() ? "ok" : w2.status().ToString().c_str(),
              w2.ok() ? static_cast<unsigned long long>(w2->version) : 0ULL);

  // 5. Recover the node: the next epoch check re-admits it (marked
  //    stale), and asynchronous propagation brings it up to date.
  std::printf("\nrecovering node 4...\n");
  cluster.Recover(4);
  s = cluster.CheckEpochSync(0);
  std::printf("epoch check: %s\n", s.ToString().c_str());
  cluster.RunFor(2000);  // Let propagation finish.
  const auto& store4 = cluster.node(4).store();
  std::printf("node 4: version %llu, stale=%d  (caught up by propagation)\n",
              static_cast<unsigned long long>(store4.version()),
              store4.stale() ? 1 : 0);

  // 6. The recorded history is one-copy serializable.
  Status history = cluster.CheckHistory();
  std::printf("\nhistory check: %s\n", history.ToString().c_str());
  return history.ok() ? 0 : 1;
}
