// Ext-E: epoch-check cadence ablation. The availability analysis assumes
// an epoch check runs between any two failure/repair events (site-model
// assumption 4). This bench violates that assumption: the full protocol
// stack runs under Poisson failures/repairs while the background epoch
// daemons check at varying intervals, and we measure the fraction of
// probe writes that succeed plus the epoch-check message overhead.
//
// Expected shape: checks much faster than the failure rate recover most
// of the analytic availability; slow checks let failures accumulate and
// availability decays toward the static protocol's.

#include <cstdio>
#include <vector>

#include "protocol/cluster.h"

namespace {

using namespace dcp;
using namespace dcp::protocol;

struct CadenceResult {
  double write_success_rate = 0;
  double epoch_changes = 0;
  double epoch_poll_msgs_per_time = 0;
};

CadenceResult RunCadence(sim::Time check_interval, double mtbf,
                         double mttr, sim::Time horizon, uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(16, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = check_interval;
  Cluster cluster(opts);

  // Fault injector: per-node alternating exponential up/down periods.
  Rng rng(seed * 977);
  struct NodeFault {
    bool up = true;
  };
  std::vector<NodeFault> state(9);
  std::function<void(NodeId)> arm = [&](NodeId id) {
    double delay = state[id].up ? rng.Exponential(1.0 / mtbf)
                                : rng.Exponential(1.0 / mttr);
    cluster.simulator().Schedule(delay, [&, id] {
      if (state[id].up) {
        cluster.Crash(id);
      } else {
        cluster.Recover(id);
      }
      state[id].up = !state[id].up;
      arm(id);
    });
  };
  for (NodeId id = 0; id < 9; ++id) arm(id);

  // Probe writes at a steady rate from rotating coordinators.
  int attempts = 0, successes = 0;
  const sim::Time probe_interval = 200;
  std::function<void(int)> probe = [&](int i) {
    cluster.simulator().Schedule(probe_interval, [&, i] {
      NodeId coord = static_cast<NodeId>(i % 9);
      if (!cluster.network().IsUp(coord)) {
        probe(i + 1);  // Skip probes from dead coordinators.
        return;
      }
      ++attempts;
      cluster.Write(coord, Update::Partial(0, {uint8_t(i)}),
                    [&](Result<WriteOutcome> r) {
                      if (r.ok()) ++successes;
                    });
      probe(i + 1);
    });
  };
  probe(0);

  cluster.RunFor(horizon);

  CadenceResult result;
  result.write_success_rate = attempts ? double(successes) / attempts : 0;
  const uint64_t polls =
      cluster.metrics().CounterValue("net.type.epoch-poll.sent");
  result.epoch_poll_msgs_per_time = double(polls) / horizon * 1000.0;
  uint64_t changes = 0;
  for (uint32_t i = 0; i < 9; ++i) {
    changes = std::max<uint64_t>(changes,
                                 cluster.node(i).store().epoch_number());
  }
  result.epoch_changes = double(changes);
  return result;
}

}  // namespace

int main() {
  // p = MTBF/(MTBF+MTTR) = 0.8: low enough that failures overlap, so the
  // dynamic advantage (and its dependence on check cadence) is visible —
  // at p = 0.95 a quorum of the *initial* epoch is almost always up and
  // HeavyProcedure masks the cadence entirely.
  const double kMtbf = 20000;  // Mean time between failures per node.
  const double kMttr = 5000;   // Mean repair time.
  const sim::Time kHorizon = 600000;

  std::printf("Epoch-check cadence ablation (9 nodes, dynamic grid, "
              "MTBF = %.0f, MTTR = %.0f, horizon = %.0f)\n\n", kMtbf, kMttr,
              kHorizon);
  std::printf("%-16s %-15s %-14s %-18s\n", "check interval",
              "write success", "epoch changes", "poll msgs/1k time");
  for (sim::Time interval : {250.0, 1000.0, 4000.0, 16000.0, 64000.0}) {
    CadenceResult r = RunCadence(interval, kMtbf, kMttr, kHorizon,
                                 /*seed=*/5);
    std::printf("%-16.0f %-15.4f %-14.0f %-18.1f\n", interval,
                r.write_success_rate, r.epoch_changes,
                r.epoch_poll_msgs_per_time);
  }
  std::printf("\nExpected shape: frequent checks keep write success near "
              "the analytic\navailability at modest message cost; as the "
              "interval approaches the failure\nscale, failures accumulate "
              "between checks and success decays.\n");
  return 0;
}
