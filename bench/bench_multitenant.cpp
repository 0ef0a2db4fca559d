// Multi-tenant job runtime under load — the engine-refactor acceptance
// bench:
//   1 parity    — the same SpMV workload through Engine::run and through
//                 the JobManager: results bitwise-identical; and in the
//                 DES, run(g) and run_jobs with g as the only job give
//                 equal makespan, disk bytes and net bytes (asserted);
//   2 fairness  — equal-weight tenants saturating the inflight-load
//                 budget: Jain index of job latencies >= 0.9 (asserted);
//   3 isolation — small jobs beside one large job: the small jobs' worst
//                 latency stays a bounded multiple of their latency when
//                 run alone (asserted) — fair-share admission, not FIFO;
//   4 poisson   — Poisson arrivals, mixed job sizes, skewed priorities
//                 and weights: p50/p99 job latency and makespan;
//   5 coverage  — a concurrent 2-job run on the real engine: every task
//                 span and every causal flow event carries the job arg
//                 (asserted), so traces filter cleanly per job.
//
// Phases 1(DES)–4 run under virtual time and are deterministic on any
// machine: BENCH_multitenant.json diffs tightly against
// bench/baselines/BENCH_multitenant.json (bench_multitenant_check).
// Real-engine wall times are reported but excluded from the gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "jobs/job_manager.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/array_creator.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"

using namespace dooc;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::string scratch_dir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dooc_mt_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

// ---------------------------------------------------------------------------
// DES workload synthesis: jobs of independent reads over shared durable
// sub-matrices, each task writing one private (job-namespaced) partial.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kArrayBytes = 32ull << 20;
constexpr int kSimNodes = 2;
constexpr int kDurable = 8;

void add_durables(solver::VirtualArrayCreator& creator) {
  for (int i = 0; i < kDurable; ++i) {
    creator.add_durable("m" + std::to_string(i), kArrayBytes, i % kSimNodes);
  }
}

sched::TaskGraph make_job(int jid, int tasks, solver::VirtualArrayCreator& creator) {
  sched::TaskGraph g;
  for (int i = 0; i < tasks; ++i) {
    const std::string out = jobs::namespaced(static_cast<jobs::JobId>(jid),
                                             "o" + std::to_string(i));
    creator.create(out, kArrayBytes, i % kSimNodes);
    sched::Task t;
    t.name = "j" + std::to_string(jid) + ".t" + std::to_string(i);
    t.kind = "multiply";
    t.inputs = {{"m" + std::to_string(i % kDurable), 0, kArrayBytes}};
    t.outputs = {{out, 0, kArrayBytes}};
    t.est_flops = 2e8;
    t.seq = i;
    g.add(std::move(t));
  }
  g.build();
  return g;
}

sim::SimResources contended_resources() {
  sim::SimResources res;
  res.inflight_load_budget = kArrayBytes;  // one fetch per node at a time
  return res;
}

// ---------------------------------------------------------------------------
// Phase 1a: real-engine parity, Engine::run vs JobManager
// ---------------------------------------------------------------------------

struct RealRun {
  std::vector<double> result;
  std::uint64_t tasks = 0;
  double wall_s = 0.0;
};

RealRun run_real_spmv(bool via_manager) {
  const std::string dir = scratch_dir(via_manager ? "jm" : "run");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  storage::StorageCluster cluster(2, cfg);
  auto m = spmv::generate_uniform_gap(256, 256, 3.0, 0x5eed);
  const auto owner = spmv::row_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 1e-3 * static_cast<double>(i); });
  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  solver::IteratedSpmv driver(cluster, deployed, config);

  sched::Engine engine(cluster, {});
  RealRun out;
  const std::uint64_t t0 = bench::now_ns();
  if (via_manager) {
    jobs::JobManager jm(cluster, engine);
    out.tasks = jm.await(jm.submit(driver.graph())).tasks_executed;
  } else {
    out.tasks = driver.run(engine).tasks_executed;
  }
  out.wall_s = bench::seconds_since(t0);
  out.result = driver.gather_result();
  std::filesystem::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Phase 5: trace coverage of a concurrent 2-job run
// ---------------------------------------------------------------------------

struct Coverage {
  std::uint64_t task_spans = 0;
  double task_job_coverage = 0.0;
  double flow_job_coverage = 0.0;
};

Coverage run_trace_coverage() {
  const std::string dir = scratch_dir("trace");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  cfg.memory_budget = 16ull << 20;
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  std::filesystem::create_directories(node.scratch_dir());
  // Durable inputs so the jobs issue real loads (read-issue flows).
  for (const char* name : {"ta", "tb"}) {
    const std::string path = node.scratch_dir() + "/" + name + ".bin";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::vector<char> blob(8 * 65536, 'z');
    std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
    node.import_file(name, path, 65536);
  }
  const auto reader_graph = [&](sched::TaskGraph& g, const std::string& src,
                                const std::string& prefix) {
    for (int i = 0; i < 8; ++i) {
      const std::string out = prefix + std::to_string(i);
      node.create_array(out, 8, 8);
      sched::Task t;
      t.name = out;
      t.kind = "test";
      t.inputs = {{src, static_cast<std::uint64_t>(i) * 65536, 1024}};
      t.outputs = {{out, 0, 8}};
      t.seq = i;
      t.work = [](sched::TaskContext& ctx) {
        ctx.output(0).as<std::uint64_t>()[0] = static_cast<std::uint64_t>(ctx.input(0).bytes()[0]);
      };
      g.add(std::move(t));
    }
    g.build();
  };
  sched::TaskGraph ga, gb;
  reader_graph(ga, "ta", "cov_a");
  reader_graph(gb, "tb", "cov_b");

  obs::TraceSession::instance().start();
  sched::EngineConfig ecfg;
  ecfg.compute_slots_per_node = 2;
  {
    sched::Engine engine(cluster, ecfg);
    const auto id_a = engine.submit(ga);
    const auto id_b = engine.submit(gb);
    (void)engine.await(id_a);
    (void)engine.await(id_b);
  }
  const auto events = obs::TraceSession::instance().stop();
  const auto parsed = obs::parse_chrome_trace(obs::chrome_trace_json(events));

  Coverage cov;
  std::uint64_t task_with_job = 0;
  std::uint64_t flows = 0;
  std::uint64_t flows_with_job = 0;
  for (const auto& ev : parsed) {
    if (ev.phase == 'X' && ev.cat == "task") {
      ++cov.task_spans;
      if (ev.args.count("job") != 0) ++task_with_job;
    }
    if (ev.phase == 's' || ev.phase == 't' || ev.phase == 'f') {
      ++flows;
      if (ev.args.count("job") != 0) ++flows_with_job;
    }
  }
  cov.task_job_coverage =
      cov.task_spans > 0 ? static_cast<double>(task_with_job) / static_cast<double>(cov.task_spans)
                         : 0.0;
  cov.flow_job_coverage =
      flows > 0 ? static_cast<double>(flows_with_job) / static_cast<double>(flows) : 0.0;
  std::filesystem::remove_all(dir);
  return cov;
}

}  // namespace

int main() {
  bench::JsonReport report;
  report.meta("bench", "multitenant");
  report.meta("sim_nodes", static_cast<std::uint64_t>(kSimNodes));
  report.meta("array_mb", static_cast<double>(kArrayBytes >> 20));

  // -------------------------------------------------------------------------
  bench::section("Phase 1 — single-job parity: JobManager vs the pre-refactor path");

  const RealRun via_run = run_real_spmv(false);
  const RealRun via_jm = run_real_spmv(true);
  const bool bitwise =
      via_run.result.size() == via_jm.result.size() &&
      std::memcmp(via_run.result.data(), via_jm.result.data(),
                  via_run.result.size() * sizeof(double)) == 0;
  std::printf("  real engine: %llu tasks, run %.3f s / manager %.3f s, results %s\n",
              static_cast<unsigned long long>(via_run.tasks), via_run.wall_s, via_jm.wall_s,
              bitwise ? "bitwise-identical" : "DIFFER");
  check(bitwise, "JobManager result must be bitwise-identical to Engine::run");
  check(via_run.tasks == via_jm.tasks, "task counts must match across the two paths");

  sim::SimMetrics single_run;
  sim::SimMetrics single_jobs;
  {
    solver::VirtualArrayCreator creator;
    add_durables(creator);
    sched::TaskGraph g = make_job(1, 12, creator);
    {
      sim::SimEngine des(kSimNodes, contended_resources(), creator.arrays());
      single_run = des.run(g);
    }
    {
      sim::SimEngine des(kSimNodes, contended_resources(), creator.arrays());
      single_jobs = des.run_jobs({{&g, 0.0, 1.0, 0}});
    }
  }
  const double single_run_s = single_run.makespan;
  const double single_jobs_s = single_jobs.makespan;
  std::printf("  DES single job: run() %.3f s, run_jobs() %.3f s\n", single_run_s, single_jobs_s);
  check(single_run_s == single_jobs_s && single_run.disk_bytes == single_jobs.disk_bytes &&
            single_run.net_bytes == single_jobs.net_bytes,
        "run(g) must equal run_jobs({g}): same makespan, disk bytes and net bytes");
  report.add_record()
      .field("scenario", "parity")
      .field("tasks", via_run.tasks)
      .field("parity_ok", static_cast<std::uint64_t>(bitwise ? 1 : 0))
      .field("wall_run_s", via_run.wall_s)
      .field("wall_jm_s", via_jm.wall_s)
      .field("des_single_run_s", single_run_s)
      .field("des_single_jobs_s", single_jobs_s);

  // -------------------------------------------------------------------------
  bench::section("Phase 2 — fairness at saturation: 4 equal tenants, one-fetch budget");

  {
    solver::VirtualArrayCreator creator;
    add_durables(creator);
    std::deque<sched::TaskGraph> graphs;
    std::vector<sim::SimJob> submit;
    for (int j = 0; j < 4; ++j) {
      graphs.push_back(make_job(j, 8, creator));
      submit.push_back({&graphs.back(), 0.0, 1.0, 0});
    }
    sim::SimEngine des(kSimNodes, contended_resources(), creator.arrays());
    const sim::SimMetrics m = des.run_jobs(submit);
    std::vector<double> lat;
    for (const auto& j : m.jobs) lat.push_back(j.latency);
    const double jain = sim::jain(lat);
    bench::Table table({"job", "latency"});
    for (const auto& j : m.jobs) {
      table.add_row({std::to_string(j.job), bench::fmt("%.3f s", j.latency)});
    }
    table.print();
    std::printf("  Jain %.4f, makespan %.3f s, deferred fetches %llu\n", jain, m.makespan,
                static_cast<unsigned long long>(m.deferred_fetches));
    check(jain >= 0.9, "equal-weight tenants at saturation must land Jain >= 0.9");
    check(m.deferred_fetches > 0, "a one-fetch budget must actually queue admissions");
    report.add_record()
        .field("scenario", "fairness_equal_4")
        .field("jain", jain)
        .field("makespan_s", m.makespan)
        .field("deferred_fetches", m.deferred_fetches)
        .field("p99_s", percentile(lat, 0.99));
  }

  // -------------------------------------------------------------------------
  bench::section("Phase 3 — isolation: 4 small jobs beside one large job");

  {
    // Baseline: one small job with the cluster to itself.
    double alone_s = 0.0;
    {
      solver::VirtualArrayCreator creator;
      add_durables(creator);
      sched::TaskGraph g = make_job(1, 4, creator);
      sim::SimEngine des(kSimNodes, contended_resources(), creator.arrays());
      alone_s = des.run_jobs({{&g, 0.0, 1.0, 0}}).jobs[0].latency;
    }
    solver::VirtualArrayCreator creator;
    add_durables(creator);
    std::deque<sched::TaskGraph> graphs;
    std::vector<sim::SimJob> submit;
    graphs.push_back(make_job(0, 32, creator));  // the elephant, submitted first
    submit.push_back({&graphs.back(), 0.0, 1.0, 0});
    for (int j = 1; j <= 4; ++j) {
      graphs.push_back(make_job(j, 4, creator));
      submit.push_back({&graphs.back(), 0.05 * j, 1.0, 0});
    }
    sim::SimEngine des(kSimNodes, contended_resources(), creator.arrays());
    const sim::SimMetrics m = des.run_jobs(submit);
    std::vector<double> small;
    for (const auto& j : m.jobs) {
      std::printf("  job %u: arrival %.2f s, finish %.3f s, latency %.3f s\n", j.job, j.arrival,
                  j.finish, j.latency);
      if (j.job != 0) small.push_back(j.latency);
    }
    const double small_p99 = percentile(small, 0.99);
    const double blowup = alone_s > 0 ? small_p99 / alone_s : 0.0;
    std::printf("  small job alone %.3f s; beside the elephant p99 %.3f s (%.2fx)\n", alone_s,
                small_p99, blowup);
    std::printf("  elephant finished at %.3f s of %.3f s makespan\n", m.jobs[0].finish,
                m.makespan);
    check(blowup <= 10.0,
          "fair-share admission must bound small-job p99 beside a large job (<= 10x alone)");
    report.add_record()
        .field("scenario", "isolation_small_vs_large")
        .field("alone_s", alone_s)
        .field("small_p99_s", small_p99)
        .field("blowup", blowup)
        .field("makespan_s", m.makespan);
  }

  // -------------------------------------------------------------------------
  bench::section("Phase 4 — Poisson arrivals, mixed sizes, skewed priorities");

  {
    solver::VirtualArrayCreator creator;
    add_durables(creator);
    SplitMix64 rng(2026);
    std::deque<sched::TaskGraph> graphs;
    std::vector<sim::SimJob> submit;
    double arrival = 0.0;
    const double lambda = 1.2;  // jobs per virtual second
    for (int j = 0; j < 12; ++j) {
      arrival += -std::log(1.0 - rng.next_double()) / lambda;
      const std::uint64_t die = rng.next_below(10);
      const int tasks = die < 6 ? 3 : (die < 9 ? 8 : 16);       // 60/30/10 small/med/large
      const int priority = die < 7 ? 0 : (die < 9 ? 1 : 2);      // skewed tiers
      const double weight = 1.0 + static_cast<double>(rng.next_below(3));
      graphs.push_back(make_job(j, tasks, creator));
      submit.push_back({&graphs.back(), arrival, weight, priority});
    }
    sim::SimEngine des(kSimNodes, contended_resources(), creator.arrays());
    const sim::SimMetrics m = des.run_jobs(submit);
    std::vector<double> lat;
    for (const auto& j : m.jobs) {
      check(j.latency > 0.0, "every Poisson-arrival job must complete");
      lat.push_back(j.latency);
    }
    const double p50 = percentile(lat, 0.50);
    const double p99 = percentile(lat, 0.99);
    std::printf("  12 jobs over %.2f s of arrivals: latency p50 %.3f s, p99 %.3f s\n", arrival,
                p50, p99);
    std::printf("  makespan %.3f s, deferred fetches %llu, starvation overrides %llu\n",
                m.makespan, static_cast<unsigned long long>(m.deferred_fetches),
                static_cast<unsigned long long>(m.starvation_overrides));
    report.add_record()
        .field("scenario", "poisson_mixed_12")
        .field("latency_p50_s", p50)
        .field("latency_p99_s", p99)
        .field("makespan_s", m.makespan)
        .field("deferred_fetches", m.deferred_fetches)
        .field("starvation_overrides", m.starvation_overrides);
  }

  // -------------------------------------------------------------------------
  bench::section("Phase 5 — trace coverage: every task span / flow carries the job id");

  {
    const Coverage cov = run_trace_coverage();
    std::printf("  %llu task spans, job-arg coverage: spans %.0f%%, flows %.0f%%\n",
                static_cast<unsigned long long>(cov.task_spans), 100.0 * cov.task_job_coverage,
                100.0 * cov.flow_job_coverage);
    check(cov.task_spans == 16, "both jobs' 16 tasks must emit task spans");
    check(cov.task_job_coverage == 1.0, "every task span must carry the job arg");
    check(cov.flow_job_coverage == 1.0, "every causal flow event must carry the job arg");
    report.add_record()
        .field("scenario", "trace_coverage")
        .field("task_spans", cov.task_spans)
        .field("task_job_coverage", cov.task_job_coverage)
        .field("flow_job_coverage", cov.flow_job_coverage);
  }

  const std::string artifact = "BENCH_multitenant.json";
  if (!report.write(artifact)) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", artifact.c_str());
  if (failures != 0) {
    std::printf("%d acceptance check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("acceptance checks passed: parity, fairness, isolation, liveness, coverage\n");
  return 0;
}
