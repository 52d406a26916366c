// Ext-F: group epoch management amortization (Section 2, benefit 4:
// "if several data items are replicated on the same set of nodes, the
// epoch management can be done per this whole group of data. Thus, the
// overhead is amortized over several data items").
//
// Compares K data items managed as one group (shared epoch) against K
// independently-managed items (one epoch each), under the same failure/
// repair schedule with background epoch daemons: total epoch-poll and
// epoch-change traffic, normalized per item.

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "protocol/cluster.h"

namespace {

using namespace dcp;
using namespace dcp::protocol;

struct AmortizationResult {
  double poll_msgs_per_object = 0;
  double change_msgs_per_object = 0;  // 2PC prepare+commit+abort traffic.
  uint64_t epoch_changes = 0;
};

/// Runs `groups` clusters with `objects_per_group` objects each under an
/// identical crash/recover schedule, and returns per-object traffic.
AmortizationResult Run(uint32_t groups, uint32_t objects_per_group,
                       sim::Time horizon) {
  uint32_t total_objects = groups * objects_per_group;
  AmortizationResult out;
  for (uint32_t g = 0; g < groups; ++g) {
    ClusterOptions opts;
    opts.num_nodes = 9;
    opts.num_objects = objects_per_group;
    opts.coterie = CoterieKind::kGrid;
    opts.seed = 1000 + g;  // Same seed family per group index.
    opts.initial_value = {0};
    opts.start_epoch_daemons = true;
    opts.epoch_check_interval = 400;
    Cluster cluster(opts);

    // Identical failure schedule for every configuration: a rolling
    // single failure/repair wave.
    Rng rng(555);  // Same fault schedule regardless of grouping.
    sim::Time t = 0;
    while (t < horizon) {
      NodeId victim = static_cast<NodeId>(rng.Uniform(9));
      sim::Time down_at = t + 500 + rng.NextDouble() * 1000;
      sim::Time up_at = down_at + 800 + rng.NextDouble() * 800;
      cluster.simulator().Schedule(down_at, [&cluster, victim] {
        if (cluster.network().IsUp(victim)) cluster.Crash(victim);
      });
      cluster.simulator().Schedule(up_at, [&cluster, victim] {
        if (!cluster.network().IsUp(victim)) cluster.Recover(victim);
      });
      t = up_at;
    }
    cluster.RunFor(horizon);

    const obs::MetricsRegistry& m = cluster.metrics();
    out.poll_msgs_per_object +=
        double(m.CounterValue("net.type.epoch-poll.sent"));
    out.change_msgs_per_object +=
        double(m.CounterValue("net.type.2pc-prepare.sent") +
               m.CounterValue("net.type.2pc-commit.sent") +
               m.CounterValue("net.type.2pc-abort.sent"));
    uint64_t changes = 0;
    for (uint32_t i = 0; i < 9; ++i) {
      changes = std::max<uint64_t>(changes, cluster.node(i).epoch().number);
    }
    out.epoch_changes += changes;
  }
  out.poll_msgs_per_object /= total_objects;
  out.change_msgs_per_object /= total_objects;
  return out;
}

}  // namespace

int main() {
  const sim::Time kHorizon = 60000;
  std::printf("Group epoch management: K items in one group vs K separate "
              "groups\n(9 nodes, identical failure schedule, epoch daemons "
              "at interval 400, horizon %.0f)\n\n", kHorizon);
  std::printf("%-26s %-18s %-20s %-14s\n", "configuration",
              "polls per object", "change-2pc per obj", "epoch changes");
  struct Config {
    const char* name;
    uint32_t groups, objects;
  };
  const Config configs[] = {
      {"1 object  (baseline)", 1, 1},
      {"4 objects, 1 group", 1, 4},
      {"4 objects, 4 groups", 4, 1},
      {"16 objects, 1 group", 1, 16},
      {"16 objects, 16 groups", 16, 1},
  };
  for (const Config& c : configs) {
    AmortizationResult r = Run(c.groups, c.objects, kHorizon);
    std::printf("%-26s %-18.1f %-20.1f %" PRIu64 "\n", c.name,
                r.poll_msgs_per_object, r.change_msgs_per_object,
                r.epoch_changes);
  }
  std::printf("\nExpected shape: grouped items divide the poll traffic by K "
              "(one poll stream per\ngroup) and share each epoch change's "
              "2PC, while split items pay full price per item.\n");
  return 0;
}
