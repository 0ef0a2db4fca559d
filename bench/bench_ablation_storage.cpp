// Ablation bench for the storage-layer design choices DESIGN.md calls out
// (eviction is LRU, the paper's choice, and has no alternative to ablate):
//   * lookup protocol (hash-owner vs the paper's random-walk) measured in
//     peer-query hops;
//   * prefetch window depth and I/O filter count on a throttled device,
//     measured in wall time (overlap of I/O and compute);
//   * the completion-driven I/O model, checked by the what-if(io:0) bracket.
// Real backend, local filesystem, throttled reads where noted. The exit
// status is that of the what-if(io:0) bracket; the other sections report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/array_creator.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"

using namespace dooc;

namespace {

std::string scratch_dir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dooc_abl_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

void lookup_ablation() {
  bench::section("lookup protocol — peer queries to locate remote arrays (8 nodes)");
  bench::Table table({"protocol", "lookups resolved", "total hops", "hops/lookup"});
  for (auto protocol : {storage::LookupProtocol::HashOwner, storage::LookupProtocol::RandomWalk}) {
    const std::string dir = scratch_dir("lookup");
    storage::StorageConfig cfg;
    cfg.scratch_root = dir;
    cfg.lookup = protocol;
    storage::StorageCluster cluster(8, cfg);
    // Node 3 owns 32 small arrays; every other node resolves all of them.
    for (int a = 0; a < 32; ++a) {
      const std::string name = "arr" + std::to_string(a);
      cluster.node(3).create_array(name, 64, 64);
      auto w = cluster.node(3).request_write({name, 0, 64}).get();
    }
    int lookups = 0;
    for (int n = 0; n < 8; ++n) {
      if (n == 3) continue;
      for (int a = 0; a < 32; ++a) {
        auto meta = cluster.node(n).array_meta("arr" + std::to_string(a));
        if (meta) ++lookups;
      }
    }
    const auto stats = cluster.total_stats();
    table.add_row({protocol == storage::LookupProtocol::HashOwner ? "hash-owner" : "random-walk (paper)",
                   std::to_string(lookups), std::to_string(stats.lookup_hops),
                   bench::fmt("%.2f", static_cast<double>(stats.lookup_hops) / lookups)});
    std::filesystem::remove_all(dir);
  }
  table.print();
}

void prefetch_ablation() {
  bench::section("prefetch window — iterated SpMV wall time on a throttled device");
  bench::Table table({"prefetch window", "wall time", "vs window 0"});
  double baseline = 0.0;
  for (int window : {0, 1, 2, 4}) {
    const std::string dir = scratch_dir("pref");
    storage::StorageConfig cfg;
    cfg.scratch_root = dir;
    cfg.memory_budget = 48ull << 20;
    cfg.throttle_read_bw = 120e6;  // a slow "HDD-class" device...
    cfg.io_workers = 2;            // ...with two independent channels
    storage::StorageCluster cluster(1, cfg);

    auto m = spmv::generate_uniform_gap(4096, 4096, 3.0, 0xab1);
    const auto owner = spmv::column_strip_owner(1);
    const auto deployed = spmv::deploy_matrix(cluster, m, 4, owner);
    spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                    [](std::uint64_t) { return 1.0; });

    solver::IteratedSpmvConfig config;
    config.iterations = 2;
    solver::IteratedSpmv driver(cluster, deployed, config);
    sched::EngineConfig ecfg;
    ecfg.prefetch_window = window;
    sched::Engine engine(cluster, ecfg);
    const double t = bench::time_seconds([&] { driver.run(engine); });
    if (window == 0) baseline = t;
    table.add_row({std::to_string(window), bench::fmt("%.2f s", t),
                   bench::fmt("%.0f%%", t / baseline * 100.0)});
    std::filesystem::remove_all(dir);
  }
  table.print();
  std::printf("(without read-ahead the two I/O channels idle; a window >= 1 keeps them full\n"
              " and overlaps loads with compute — the local scheduler's prefetch duty)\n");
}

void io_workers_ablation() {
  bench::section("I/O filter count — aggregate read bandwidth on a throttled device");
  bench::Table table({"I/O filters", "wall time", "effective BW"});
  for (int workers : {1, 2, 4}) {
    const std::string dir = scratch_dir("iow");
    storage::StorageConfig cfg;
    cfg.scratch_root = dir;
    cfg.memory_budget = 256ull << 20;
    cfg.io_workers = workers;
    cfg.throttle_read_bw = 150e6;  // per-filter throttle = per-channel device
    storage::StorageCluster cluster(1, cfg);
    auto& node = cluster.node(0);
    const std::string path = node.scratch_dir() + "/data";
    const std::uint64_t total = 64ull << 20;
    {
      std::ofstream out(path, std::ios::binary);
      std::vector<char> junk(total, 'w');
      out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    node.import_file("data", path, 4ull << 20);
    const std::uint64_t t0 = bench::now_ns();
    for (std::uint64_t b = 0; b < total / (4ull << 20); ++b) {
      node.prefetch({"data", b * (4ull << 20), 4ull << 20});
    }
    while (node.resident_bytes() < total) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const double t = bench::seconds_since(t0);
    table.add_row({std::to_string(workers), bench::fmt("%.2f s", t),
                   format_bandwidth(static_cast<double>(total) / t)});
    std::filesystem::remove_all(dir);
  }
  table.print();
  std::printf("(the paper: \"as many I/O filters as is necessary to efficiently use the\n"
              " parallelism contained in the I/O subsystem\")\n");
}

struct IoModeOutcome {
  double makespan = 0.0;
  double overlap = 0.0;        ///< fraction of I/O hidden behind compute
  double predicted_noio = 0.0; ///< what-if io x0 retimed makespan, seconds
  double compute_busy = 0.0;   ///< cluster-total traced compute, seconds
  double total_flops = 0.0;    ///< sum of est_flops over the task graph
  spmv::DeployedMatrix matrix; ///< grid/nnz/bytes metadata for the DES twin
};

IoModeOutcome run_io_mode(double throttle_bw) {
  const std::string dir = scratch_dir("cmpio");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  // Quickstart-scale workload squeezed into a budget that forces the
  // back-and-forth reloads every iteration, on a throttled device — the
  // regime where hiding I/O behind compute decides the makespan.
  cfg.memory_budget = 8ull << 20;
  cfg.throttle_read_bw = throttle_bw;
  storage::StorageCluster cluster(3, cfg);

  auto m = spmv::generate_uniform_gap(4096, 4096, 4.0, 2012);
  const auto owner = spmv::row_strip_owner(3);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });

  solver::IteratedSpmvConfig config;
  config.iterations = 4;
  config.mode = solver::ReductionMode::Interleaved;
  config.inter_iteration_sync = false;
  solver::IteratedSpmv driver(cluster, deployed, config);

  obs::TraceSession::instance().start();
  sched::Engine engine(cluster, sched::EngineConfig{});
  IoModeOutcome out;
  {
    // Background sampler flushes the metrics registry into the trace as
    // Counter events while the run is live (the same gauges dooc_tracecat
    // --metrics exports); its destructor takes a final sample.
    obs::MetricsSampler sampler(std::chrono::milliseconds(5));
    out.makespan = bench::time_seconds([&] { driver.run(engine); });
  }
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();

  // Round-trip through the Chrome JSON exporter and the trace reader — the
  // same pipeline dooc_tracecat uses. Overlap is computed per node (each
  // node has its own device and its own compute slot) and aggregated as
  // total hidden I/O time over total I/O time, so cross-node span unions
  // don't blur the comparison.
  const std::vector<obs::ParsedEvent> parsed =
      obs::parse_chrome_trace(obs::chrome_trace_json(events));
  double io_total = 0.0;
  double io_hidden = 0.0;
  double compute_total = 0.0;
  for (int node = 0; node < 3; ++node) {
    std::vector<obs::ParsedEvent> local;
    for (const auto& ev : parsed) {
      if (ev.pid == node) local.push_back(ev);
    }
    const obs::TraceSummary s = obs::summarize(local);
    io_total += s.io_busy_us;
    io_hidden += s.io_overlapped_us;
    compute_total += s.compute_busy_us;
  }
  out.overlap = io_total > 0.0 ? io_hidden / io_total : 0.0;

  // Causal view of the same trace: rebuild the producer->consumer DAG from
  // the flow events (loads are flow instances) and retime it with free I/O.
  const obs::causal::CausalGraph graph = obs::causal::CausalGraph::build(parsed);
  out.predicted_noio = graph.what_if("io", 0.0) * 1e-6;
  out.compute_busy = compute_total * 1e-6;
  for (sched::TaskId t = 0; t < driver.graph().size(); ++t) {
    out.total_flops += driver.graph().task(t).est_flops;
  }
  out.matrix = deployed;

  std::printf("  wall %.3fs io_busy %.1fms compute_busy %.1fms overlap %.2f%% "
              "what-if(io:0) %.3fs\n",
              out.makespan, io_total / 1e3, compute_total / 1e3, 100.0 * out.overlap,
              out.predicted_noio);
  std::filesystem::remove_all(dir);
  return out;
}

/// Lower bound for the what-if(io:0) bracket: the same task graph run on
/// the DES backend with storage made free (infinite bandwidth and memory,
/// zero overheads) and compute calibrated *optimistically* at twice the
/// measured effective flop rate. Anything the retimed real DAG predicts
/// must sit above this simulated floor and below the measured makespan.
double des_noio_makespan(const IoModeOutcome& ref) {
  const auto& deployed = ref.matrix;
  const int k = deployed.grid.k();
  solver::VirtualArrayCreator creator;
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) {
      creator.add_durable(deployed.name_of(u, v), deployed.bytes_of(u, v),
                          deployed.owner_of(u, v));
    }
    creator.add_durable(spmv::BlockGrid::vector_name("x", 0, u),
                        deployed.grid.part_size(u) * sizeof(double), u);
  }

  solver::IteratedSpmvConfig config;
  config.iterations = 4;
  config.mode = solver::ReductionMode::Interleaved;
  config.inter_iteration_sync = false;
  solver::IteratedSpmv driver(creator, deployed, config);

  const double measured_rate =
      ref.compute_busy > 0.0 ? ref.total_flops / ref.compute_busy : 1e9;
  sim::SimResources res;
  res.node_memory = 1ull << 40;    // everything resident: no evictions
  res.node_read_cap = 1e15;        // storage is free
  res.aggregate_read_cap = 1e15;
  res.ib_link = 1e15;
  res.mem_bw = 1e15;               // reductions charge nothing
  res.compute_rate = 2.0 * measured_rate;
  res.task_overhead = 0.0;
  res.sync_cost = 0.0;
  res.bw_noise = 0.0;
  res.compute_slots = 1;           // matches EngineConfig::compute_slots_per_node
  sim::SimEngine sim(k, res, creator.arrays());
  return sim.run(driver.graph(), sched::LocalPolicy::DataAware).makespan;
}

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

bool io_model_check() {
  bench::section("I/O completion model — loads overlap compute on a throttled device");
  // Fully asynchronous iterations (no inter-iteration barrier — the regime
  // Fig. 5(b) draws) widen the ready frontier: picked tasks park
  // InputsPending while their reads are in flight and the worker runs
  // whatever is resident. Three reps; medians reported so a cold-cache
  // first run can't skew the result.
  IoModeOutcome runs[3];
  for (auto& run : runs) run = run_io_mode(120e6);
  IoModeOutcome med;
  med.makespan = median3(runs[0].makespan, runs[1].makespan, runs[2].makespan);
  med.overlap = median3(runs[0].overlap, runs[1].overlap, runs[2].overlap);
  med.predicted_noio =
      median3(runs[0].predicted_noio, runs[1].predicted_noio, runs[2].predicted_noio);

  bench::Table table({"wall time (median/3)", "I/O hidden behind compute", "what-if(io:0)"});
  table.add_row({bench::fmt("%.2f s", med.makespan), bench::fmt("%.2f%%", 100.0 * med.overlap),
                 bench::fmt("%.3f s", med.predicted_noio)});
  table.print();

  // Acceptance — the what-if(io:0) bracket: retiming the real DAG with free
  // storage must land between an optimistic DES floor (same graph, free
  // storage, 2x the measured flop rate) and the measured makespan.
  const double des_floor = des_noio_makespan(runs[0]);
  const bool bracket_ok = des_floor <= med.predicted_noio && med.predicted_noio <= med.makespan;
  std::printf("\nwhat-if(io:0) bracket: DES floor %.3f s <= predicted %.3f s <= measured "
              "%.3f s: %s\n",
              des_floor, med.predicted_noio, med.makespan, bracket_ok ? "YES" : "NO");
  return bracket_ok;
}

}  // namespace

int main() {
  lookup_ablation();
  prefetch_ablation();
  io_workers_ablation();
  return io_model_check() ? 0 : 1;
}
