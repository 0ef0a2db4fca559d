// Drive the discrete-event SSD-testbed simulator with custom parameters —
// the "what if" tool the paper's Section VI asks for: different node
// counts, aggregate bandwidths (a faster filesystem than GPFS), SSDs
// attached to the compute nodes (no aggregate cap at all), or a different
// per-node workload.
//
// Run:  ./testbed_sim [--nodes=16] [--iterations=4] [--mode=interleaved]
//                     [--node-bw-gbs=1.5] [--aggregate-gbs=18.6]
//                     [--local-ssd] [--submatrix-gb=4] [--blocks=5]
//                     [--trace-out=sim.json]
#include <cstdio>

#include "common/options.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "simcluster/testbed.hpp"

using namespace dooc;

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);

  sim::TestbedExperiment e;
  e.nodes = static_cast<int>(opts.get_int("nodes", 16));
  e.iterations = static_cast<int>(opts.get_int("iterations", 4));
  e.mode = opts.get("mode", "interleaved") == "simple" ? solver::ReductionMode::Simple
                                                       : solver::ReductionMode::Interleaved;
  e.blocks_per_node_side = static_cast<int>(opts.get_int("blocks", 5));
  e.submatrix_bytes = static_cast<std::uint64_t>(opts.get_double("submatrix-gb", 4.0) * 1e9);

  sim::SimResources res;
  res.node_read_cap = opts.get_double("node-bw-gbs", 1.5) * 1e9;
  res.aggregate_read_cap = opts.get_double("aggregate-gbs", 18.6) * 1e9;
  if (opts.get_bool("local-ssd", false)) {
    // Section VI-A: "SSD cards should be positioned on the compute nodes
    // themselves" — per-node bandwidth, no shared filesystem bottleneck.
    res.node_read_cap = opts.get_double("node-bw-gbs", 2.0) * 1e9;
    res.aggregate_read_cap = res.node_read_cap * e.nodes;  // no shared cap
    res.bw_noise = 0.02;                                   // no GPFS jitter
  }

  // Virtual-time Chrome trace of the simulated run (same schema as the
  // real backend: task/io lanes per node, timestamps in simulated seconds).
  const std::string trace_out = opts.get("trace-out", "");
  if (!trace_out.empty()) obs::TraceSession::instance().start(trace_out);

  std::printf("testbed: %d nodes, %s policy, %.2f TB matrix, %d iterations\n", e.nodes,
              e.mode == solver::ReductionMode::Simple ? "simple" : "interleaved",
              e.matrix_terabytes(), e.iterations);
  std::printf("I/O: %s per node, %s aggregate%s\n",
              format_bandwidth(res.node_read_cap).c_str(),
              format_bandwidth(res.aggregate_read_cap).c_str(),
              opts.get_bool("local-ssd", false) ? " (node-local SSDs)" : " (shared GPFS)");

  const auto r = sim::run_testbed(e, res);
  std::printf("\ntotal time           %.0f s\n", r.time_seconds());
  std::printf("throughput           %.2f GFlop/s\n", r.gflops());
  std::printf("read bandwidth       %s\n", format_bandwidth(r.read_bandwidth()).c_str());
  std::printf("non-overlapped time  %.0f%%\n", 100.0 * r.non_overlapped());
  std::printf("CPU-hours/iteration  %.2f\n", r.cpu_hours_per_iteration());
  std::printf("vs optimal I/O @20GB/s: %.2fx\n", r.relative_to_optimal_io());

  if (opts.get_bool("compare-local-ssd", false)) {
    sim::SimResources local = res;
    local.node_read_cap = 2.0e9;
    local.aggregate_read_cap = 2.0e9 * e.nodes;
    local.bw_noise = 0.02;
    const auto rl = sim::run_testbed(e, local);
    std::printf("\nwith node-local SSDs (Section VI-A design): %.0f s (%.0f%% faster), %.2f "
                "CPU-h/iter\n",
                rl.time_seconds(), 100.0 * (1.0 - rl.time_seconds() / r.time_seconds()),
                rl.cpu_hours_per_iteration());
  }

  if (!trace_out.empty()) {
    const auto events = obs::TraceSession::instance().stop();
    std::printf("\ntrace: %zu virtual-time events written to %s\n", events.size(),
                trace_out.c_str());
  }
  // A simulated run that took no time or did no work is a wrong answer.
  return r.time_seconds() > 0 && r.gflops() > 0 ? 0 : 1;
}
