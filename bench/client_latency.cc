// Ext-H: client-perceived latency and availability under churn. An
// open-loop Poisson workload (no retries) runs against each protocol
// stack while the site-model fault injector cycles nodes; we report the
// success rate (client-visible availability) and the latency of
// committed operations in network round-trips.
//
// Expected shape: the dynamic grid's writes cost ~3 RTT (lock round +
// 2PC prepare + commit) over ~2 sqrt(N) nodes; reads ~2 RTT. JM dynamic
// voting pays the same rounds over ALL nodes — same latency in this
// uniform-latency model but far more traffic (see message_traffic) —
// while its success rate under churn is comparable; the static stacks
// lose availability as failures accumulate.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "harness/fault_injector.h"
#include "harness/workload.h"
#include "protocol/cluster.h"
#include "workload_rates.h"

namespace {

using namespace dcp;
using namespace dcp::protocol;
using harness::FaultInjector;
using harness::Stack;
using harness::WorkloadDriver;

struct Row {
  double write_success, write_latency;
  double read_success, read_latency;
  uint64_t faults;
  uint64_t messages;
};

Row Run(CoterieKind kind, Stack stack, bool with_daemons, double mtbf,
        double mttr, sim::Time horizon) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = kind;
  opts.seed = 99;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = with_daemons;
  opts.epoch_check_interval = 400;
  Cluster cluster(opts);

  FaultInjector::Options fopts;
  fopts.mtbf = mtbf;
  fopts.mttr = mttr;
  fopts.seed = 13;
  FaultInjector faults(&cluster, fopts);

  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.write_fraction = 0.5;
  wopts.seed = 31;
  wopts.stack = stack;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(horizon);
  workload.Stop();
  faults.Stop();

  Row row;
  const obs::MetricsRegistry& m = cluster.metrics();
  row.write_success = bench::SuccessRate(m, "write");
  row.write_latency = bench::MeanLatency(m, "write");
  row.read_success = bench::SuccessRate(m, "read");
  row.read_latency = bench::MeanLatency(m, "read");
  row.faults = faults.failures_injected();
  row.messages = m.CounterValue("net.sent");
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = dcp::bench::MetricsJsonPathFromArgs(argc, argv);
  const double kMtbf = 20000, kMttr = 4000;  // p ~ 0.83.
  const dcp::sim::Time kHorizon = 300000;
  std::printf("Client-perceived behaviour under churn (9 nodes, "
              "MTBF = %.0f, MTTR = %.0f => p ~ %.2f,\nopen-loop Poisson "
              "clients, NO retries, horizon %.0f; latency in sim time, "
              "1 hop ~ 1.25)\n\n",
              kMtbf, kMttr, kMtbf / (kMtbf + kMttr), kHorizon);
  std::printf("%-24s %-11s %-10s %-11s %-10s %-7s\n", "protocol",
              "write-succ", "write-lat", "read-succ", "read-lat", "faults");
  struct Config {
    const char* name;
    CoterieKind kind;
    Stack stack;
    bool daemons;
  };
  const Config configs[] = {
      {"dynamic-grid", CoterieKind::kGrid, Stack::kDynamicCoterie, true},
      {"dynamic-grid-colsafe", CoterieKind::kGridColumnSafe,
       Stack::kDynamicCoterie, true},
      {"dynamic-majority", CoterieKind::kMajority, Stack::kDynamicCoterie,
       true},
      {"static-grid", CoterieKind::kGrid, Stack::kStatic, false},
      {"static-majority", CoterieKind::kMajority, Stack::kStatic, false},
      {"dynamic-voting[JM]", CoterieKind::kMajority, Stack::kDynamicVoting,
       false},
  };
  dcp::bench::BenchJsonWriter json("client_latency");
  for (const Config& c : configs) {
    Row row = Run(c.kind, c.stack, c.daemons, kMtbf, kMttr, kHorizon);
    std::printf("%-24s %-11.4f %-10.1f %-11.4f %-10.1f %" PRIu64 "\n",
                c.name, row.write_success, row.write_latency,
                row.read_success, row.read_latency, row.faults);
    json.Row(c.name);
    json.Metric("write_success", row.write_success);
    json.Metric("write_latency", row.write_latency);
    json.Metric("read_success", row.read_success);
    json.Metric("read_latency", row.read_latency);
    json.Metric("faults", double(row.faults));
    json.Metric("messages_sent", double(row.messages));
  }
  if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
  std::printf("\nNotes: identical fault schedules (same injector seed). "
              "Success rates are per\nsingle attempt; production clients "
              "retry conflicts. The dynamic stacks keep\nsucceeding as "
              "failures accumulate because the daemons shrink the epoch.\n");
  return 0;
}
