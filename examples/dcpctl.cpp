// dcpctl — an interactive console driving a simulated dcp cluster.
// Useful for exploring the protocol by hand: issue writes and reads,
// crash and recover nodes, cut partitions, force epoch checks, and
// inspect every replica's state.
//
//   ./build/examples/dcpctl            # interactive REPL
//   ./build/examples/dcpctl --demo     # scripted tour (used by ctest)
//
// Commands:
//   write <coord> <offset> <text>   partial write via the coordinator
//   read <coord>                    quorum read
//   crash <node> | recover <node>   fail-stop faults
//   part <ids>|<ids>                partition, e.g. "part 0,1,3,6|2,4,5,7,8"
//   heal                            remove partitions
//   epoch <initiator>               run an epoch check now
//   run <time>                      advance the simulation clock
//   status                          dump all replica states
//   help | quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "protocol/cluster.h"

namespace {

using namespace dcp;
using namespace dcp::protocol;

NodeSet ParseIds(const std::string& csv) {
  NodeSet out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.Insert(static_cast<NodeId>(std::stoul(item)));
  }
  return out;
}

void PrintStatus(Cluster& cluster) {
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    std::printf("  %s%s\n", cluster.node(i).store().DebugString().c_str(),
                cluster.network().IsUp(i) ? "" : "  [DOWN]");
  }
  std::printf("  sim time: %.1f\n", cluster.simulator().Now());
}

bool Dispatch(Cluster& cluster, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') return true;

  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == "help") {
    std::printf("commands: write <coord> <offset> <text> | read <coord> | "
                "crash <n> | recover <n> |\n  part <ids>|<ids> | heal | "
                "epoch <n> | run <time> | status | quit\n");
  } else if (cmd == "write") {
    uint32_t coord, offset;
    std::string text;
    if (!(in >> coord >> offset >> text)) {
      std::printf("usage: write <coord> <offset> <text>\n");
      return true;
    }
    auto w = cluster.WriteSyncRetry(
        coord, Update::Partial(offset,
                               std::vector<uint8_t>(text.begin(), text.end())));
    if (w.ok()) {
      std::printf("committed as v%llu\n",
                  static_cast<unsigned long long>(w->version));
    } else {
      std::printf("write failed: %s\n", w.status().ToString().c_str());
    }
  } else if (cmd == "read") {
    uint32_t coord;
    if (!(in >> coord)) {
      std::printf("usage: read <coord>\n");
      return true;
    }
    auto r = cluster.ReadSyncRetry(coord, 0);
    if (r.ok()) {
      std::printf("v%llu \"%s\"\n",
                  static_cast<unsigned long long>(r->version),
                  std::string(r->data.begin(), r->data.end()).c_str());
    } else {
      std::printf("read failed: %s\n", r.status().ToString().c_str());
    }
  } else if (cmd == "crash" || cmd == "recover") {
    uint32_t node;
    if (!(in >> node) || node >= cluster.num_nodes()) {
      std::printf("usage: %s <node>\n", cmd.c_str());
      return true;
    }
    if (cmd == "crash") {
      cluster.Crash(node);
    } else {
      cluster.Recover(node);
    }
    std::printf("node %u is now %s\n", node,
                cmd == "crash" ? "down" : "up");
  } else if (cmd == "part") {
    std::string spec;
    if (!(in >> spec) || spec.find('|') == std::string::npos) {
      std::printf("usage: part <ids>|<ids>   e.g. part 0,1,3,6|2,4,5,7,8\n");
      return true;
    }
    size_t bar = spec.find('|');
    cluster.Partition({ParseIds(spec.substr(0, bar)),
                       ParseIds(spec.substr(bar + 1))});
    std::printf("partitioned\n");
  } else if (cmd == "heal") {
    cluster.Heal();
    std::printf("healed\n");
  } else if (cmd == "epoch") {
    uint32_t node = 0;
    in >> node;
    Status s = cluster.CheckEpochSync(node);
    std::printf("epoch check: %s\n", s.ToString().c_str());
  } else if (cmd == "run") {
    double t = 1000;
    in >> t;
    cluster.RunFor(t);
    std::printf("advanced to t=%.1f\n", cluster.simulator().Now());
  } else if (cmd == "status") {
    PrintStatus(cluster);
  } else {
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
  }
  return true;
}

constexpr const char* kDemoScript[] = {
    "status",
    "write 0 0 hello",
    "read 5",
    "crash 4",
    "epoch 0",
    "write 2 6 world",
    "status",
    "recover 4",
    "epoch 0",
    "run 3000",
    "read 4",
    "part 0,1,2,3,6|4,5,7,8",
    "write 0 12 quorum-side",
    "write 4 12 minority-side",
    "heal",
    "epoch 0",
    "run 3000",
    "read 8",
    "status",
};

}  // namespace

int main(int argc, char** argv) {
  ClusterOptions options;
  options.num_nodes = 9;
  options.coterie = CoterieKind::kGrid;
  options.seed = 1;
  options.initial_value = std::vector<uint8_t>(32, '.');
  Cluster cluster(options);

  bool demo = argc > 1 && std::string(argv[1]) == "--demo";
  std::printf("dcpctl: 9-node dynamic-grid cluster ready. Type 'help'.\n");

  if (demo) {
    for (const char* line : kDemoScript) {
      std::printf("dcp> %s\n", line);
      if (!Dispatch(cluster, line)) break;
    }
    Status history = cluster.CheckHistory();
    std::printf("history check: %s\n", history.ToString().c_str());
    return history.ok() ? 0 : 1;
  }

  std::string line;
  while (true) {
    std::printf("dcp> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!Dispatch(cluster, line)) break;
  }
  return 0;
}
