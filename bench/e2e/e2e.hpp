// bench_e2e: shared declarations.
//
// The benchmark drives the system only through its public API: it times
// calls into deploy_matrix, IteratedSpmv::run, Lanczos::run and the
// Coordinator, reads the public counters (StorageStats, NodeReportMsg,
// TransportCounters), and analyses the trace stream the system already
// emits with obs::summarize and obs::causal. workloads.cpp runs the
// solves; layers.cpp turns one traced solve into per-layer numbers;
// bench_e2e.cpp parses arguments, prints and compares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_reader.hpp"
#include "storage/types.hpp"

namespace dooc::e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Measured with tracing off; BENCHMARK.json's end_to_end list.
inline constexpr MetricDef kEndToEnd[] = {
    {"solve_s", "s"},   {"speedup_vs_serial", "x"}, {"cpu_s", "s"},
    {"setup_s", "s"},   {"peak_rss_mb", "MB"},
};

/// Derived from one traced solve; BENCHMARK.json's per_layer list. A
/// metric that does not apply to a workload reads 0 (see README.md).
inline constexpr MetricDef kPerLayer[] = {
    {"spmv.kernel_s", "s"},
    {"spmv.kernel_gflops", "GFLOP/s"},
    {"spmv.kernel_gbps", "GB/s"},
    {"spmv.reduce_s", "s"},
    {"spmv.serial_gflops", "GFLOP/s"},
    {"spmv.decode_s", "s"},
    {"spmv.decoded_mb", "MB"},
    {"spmv.crit_compute_s", "s"},
    {"storage.disk_reads", "count"},
    {"storage.disk_read_mb", "MB"},
    {"storage.disk_read_s", "s"},
    {"storage.disk_write_mb", "MB"},
    {"storage.evictions", "count"},
    {"storage.remote_fetch_mb", "MB"},
    {"storage.resident_frac", "ratio"},
    {"storage.io_overlap_frac", "ratio"},
    {"storage.crit_demand_io_s", "s"},
    {"storage.crit_prefetch_io_s", "s"},
    {"sched.tasks", "count"},
    {"sched.jobs", "count"},
    {"sched.busy_frac", "ratio"},
    {"sched.crit_wait_s", "s"},
    {"solver.steps", "count"},
    {"solver.matvec_s", "s"},
    {"solver.vector_s", "s"},
    {"net.spawn_s", "s"},
    {"net.deploy_s", "s"},
    {"net.gather_s", "s"},
    {"net.block_fetch_gbps", "GB/s"},
    {"net.fetch_frames", "count"},
    {"net.fetch_mb", "MB"},
    {"net.fetch_p50_us", "us"},
    {"net.fetch_p99_us", "us"},
    {"net.durable_fallbacks", "count"},
    {"net.coord_mb", "MB"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.trace_events", "count"},
    {"obs.dropped_events", "count"},
    {"obs.crit_residual_frac", "ratio"},
};

/// In the order --workload=all runs them.
inline constexpr const char* kWorkloads[] = {"spmv_incore", "spmv_ooc", "lanczos_ci",
                                             "spmv_cluster"};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Time budget of the timed solves (warm-up, set-up and the traced solve
  /// come on top).
  double seconds = 20.0;
  int min_reps = 3;
  /// Run the traced solve and derive the per-layer metrics.
  bool trace = false;
  /// Tiny inputs: the ctest smoke.
  bool smoke = false;
  /// Storage scratch files and doocd sockets (keep it short and relative:
  /// Unix socket paths must stay under 100 bytes).
  std::string scratch = "e2e_scratch";
  /// Trace files.
  std::string out = "e2e_out";
};

/// Everything one workload run measured.
struct WorkloadResult {
  std::string name;
  std::uint64_t attempted = 0;  ///< solves: warm-up, timed and traced
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks and exceptions
  double gen_s = 0.0;               ///< input generation (not in setup_s)
  /// Per-sample values of the end-to-end quantities.
  std::vector<double> solve_s, cpu_s, setup_s, rss_mb;
  /// Per timed solve: single-thread CsrMatrix::multiply time of the
  /// workload's matvecs, measured right after it (speedup_vs_serial).
  std::vector<double> serial_s;
  std::map<std::string, double> layers;  ///< per-layer metric -> value
  std::vector<std::pair<std::string, std::string>> config;  ///< effective config
  /// What the correctness checks measured, e.g. the lowest Ritz value.
  std::vector<std::pair<std::string, double>> checks;

  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// Run one workload by name (one of kWorkloads).
WorkloadResult run_workload(const std::string& name, const RunOptions& options);

/// A traced in-process solve, as layers.cpp needs it.
struct TracedSolve {
  std::vector<obs::ParsedEvent> events;
  double wall_s = 0.0;              ///< benchmark-timed wall of the solve
  storage::StorageStats storage;    ///< cluster counters, delta over the solve
  std::uint64_t dropped_events = 0;
  int matvecs = 0;
  double matvec_flops = 0.0;        ///< 2 * nnz
  double matvec_bytes = 0.0;        ///< computed bytes the multiply tasks move
  int compute_slots = 0;
};

/// Fill the spmv, storage, sched, solver and obs layer metrics of an
/// in-process traced solve. `solve_s` is the untraced median.
void derive_inproc_layers(const TracedSolve& traced, double solve_s,
                          std::map<std::string, double>& layers);

}  // namespace dooc::e2e
