// Per-layer numbers of one traced in-process solve, read from outside: the
// engine's "task" spans, the storage counters' delta over the solve, and
// the causal critical path that obs::causal rebuilds from the same trace.
#include <algorithm>
#include <cstdio>

#include "e2e.hpp"
#include "obs/causal.hpp"

namespace dooc::e2e {

namespace {

enum class TaskKind { Multiply, Reduce, Other };

/// The solver's task display names (solver/iterated_spmv.cpp): x_{u,v}^i
/// multiplies, xagg_{u}^i@n aggregates, x_u^i sums, sync^i barriers.
TaskKind classify(const std::string& name) {
  if (name.rfind("x_{", 0) == 0) return TaskKind::Multiply;
  if (name.rfind("xagg_", 0) == 0 || name.rfind("x_", 0) == 0) return TaskKind::Reduce;
  return TaskKind::Other;
}

double arg_or(const obs::ParsedEvent& e, const char* key, double fallback) {
  const auto it = e.args.find(key);
  return it != e.args.end() ? it->second : fallback;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void derive_inproc_layers(const TracedSolve& t, double solve_s,
                          std::map<std::string, double>& layers) {
  double kernel_us = 0.0;
  double reduce_us = 0.0;
  double task_us = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t resident = 0;
  std::uint64_t multiplies = 0;
  std::map<std::int64_t, std::pair<double, double>> job_extent_us;  // job -> [first start, last end]
  for (const obs::ParsedEvent& e : t.events) {
    if (e.phase != 'X' || e.cat != "task") continue;
    ++tasks;
    task_us += e.dur_us;
    if (arg_or(e, "missing_bytes", 0.0) == 0.0) ++resident;
    switch (classify(e.name)) {
      case TaskKind::Multiply:
        kernel_us += e.dur_us;
        ++multiplies;
        break;
      case TaskKind::Reduce: reduce_us += e.dur_us; break;
      case TaskKind::Other: break;
    }
    const auto job = static_cast<std::int64_t>(arg_or(e, "job", -1.0));
    const auto [it, fresh] = job_extent_us.try_emplace(job, e.ts_us, e.ts_us + e.dur_us);
    if (!fresh) {
      it->second.first = std::min(it->second.first, e.ts_us);
      it->second.second = std::max(it->second.second, e.ts_us + e.dur_us);
    }
  }
  if (multiplies == 0) {
    std::fprintf(stderr, "bench_e2e: no multiply task spans in the trace; spmv.* read 0\n");
  }
  double matvec_us = 0.0;
  for (const auto& [job, extent] : job_extent_us) matvec_us += extent.second - extent.first;

  const obs::causal::Blame blame = obs::causal::CausalGraph::build(t.events).blame();
  const auto crit_s = [&blame](const char* category) { return blame.get(category) * 1e-6; };
  const double kernel_s = kernel_us * 1e-6;
  const double matvec_s = matvec_us * 1e-6;
  const storage::StorageStats& s = t.storage;

  layers["spmv.kernel_s"] = kernel_s;
  layers["spmv.kernel_gflops"] = ratio(t.matvec_flops * t.matvecs, kernel_s) * 1e-9;
  layers["spmv.kernel_gbps"] = ratio(t.matvec_bytes * t.matvecs, kernel_s) * 1e-9;
  layers["spmv.reduce_s"] = reduce_us * 1e-6;
  layers["spmv.decode_s"] = s.decode_seconds;
  layers["spmv.decoded_mb"] = static_cast<double>(s.decoded_bytes) * 1e-6;
  layers["spmv.crit_compute_s"] = crit_s(obs::causal::kBlameCompute);

  layers["storage.disk_reads"] = static_cast<double>(s.disk_reads);
  layers["storage.disk_read_mb"] = static_cast<double>(s.disk_read_bytes) * 1e-6;
  layers["storage.disk_read_s"] = s.disk_read_seconds;
  layers["storage.disk_write_mb"] = static_cast<double>(s.disk_write_bytes) * 1e-6;
  layers["storage.evictions"] = static_cast<double>(s.evictions);
  layers["storage.remote_fetch_mb"] = static_cast<double>(s.remote_fetch_bytes) * 1e-6;
  layers["storage.resident_frac"] = ratio(static_cast<double>(resident), static_cast<double>(tasks));
  layers["storage.io_overlap_frac"] = obs::summarize(t.events).overlap_fraction();
  layers["storage.crit_demand_io_s"] = crit_s(obs::causal::kBlameDemandIo);
  layers["storage.crit_prefetch_io_s"] = crit_s(obs::causal::kBlamePrefetchIo);

  layers["sched.tasks"] = static_cast<double>(tasks);
  layers["sched.jobs"] = static_cast<double>(job_extent_us.size());
  layers["sched.busy_frac"] = ratio(task_us, t.compute_slots * matvec_us);
  layers["sched.crit_wait_s"] = crit_s(obs::causal::kBlameSchedWait);

  layers["solver.steps"] = t.matvecs;
  layers["solver.matvec_s"] = matvec_s;
  layers["solver.vector_s"] = t.wall_s - matvec_s;

  layers["obs.trace_overhead_frac"] = ratio(t.wall_s, solve_s) - 1.0;
  layers["obs.trace_events"] = static_cast<double>(t.events.size());
  layers["obs.dropped_events"] = static_cast<double>(t.dropped_events);
  layers["obs.crit_residual_frac"] = ratio(t.wall_s - blame.total_us() * 1e-6, t.wall_s);
}

}  // namespace dooc::e2e
