// dooc::jobs — the multi-tenant job runtime, end to end:
//   * array namespacing: two identical graphs submitted concurrently get
//     disjoint `j<id>.` block namespaces (the alias regression);
//   * a single job through the JobManager matches Engine::run exactly;
//   * admission control: active/queued limits, AdmissionError, the
//     on-job-done pump, and the DOOC_JOBS grammar;
//   * concurrent jobs on the real engine under a shared inflight-load
//     budget (per-job fair-share admission in the storage layer);
//   * the DES multi-job replay: fairness (Jain index), deferred-fetch
//     accounting under a budget, and the sustained-overload property that
//     every job completes.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "jobs/job_manager.hpp"
#include "sched/engine.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/array_creator.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

using storage::Interval;

sched::Task make_task(std::string name, std::vector<Interval> in, std::vector<Interval> out) {
  sched::Task t;
  t.name = std::move(name);
  t.kind = "test";
  t.inputs = std::move(in);
  t.outputs = std::move(out);
  return t;
}

storage::StorageConfig base_config(const testutil::TempDir& dir) {
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  return cfg;
}

std::uint64_t read_u64(storage::StorageCluster& cluster, int node, const std::string& array) {
  auto r = cluster.node(node).request_read({array, 0, 8}).get();
  return r.as<std::uint64_t>()[0];
}

// ---------------------------------------------------------------------------
// Namespacing primitives
// ---------------------------------------------------------------------------

TEST(JobNamespace, PrefixesUseTheDotSeparator) {
  EXPECT_EQ(jobs::job_array_prefix(3), "j3.");
  EXPECT_EQ(jobs::namespaced(12, "x^1"), "j12.x^1");
}

TEST(JobNamespace, RenameArraysKeepsGeometryAndEdges) {
  sched::TaskGraph g;
  const sched::TaskId a = g.add(make_task("a", {}, {{"x", 0, 8}}));
  const sched::TaskId b = g.add(make_task("b", {{"x", 0, 8}}, {{"y", 8, 8}}));
  g.build();
  g.rename_arrays([](const std::string& name) { return jobs::namespaced(1, name); });

  EXPECT_EQ(g.task(a).outputs[0].array, "j1.x");
  EXPECT_EQ(g.task(b).inputs[0].array, "j1.x");
  EXPECT_EQ(g.task(b).outputs[0].offset, 8u) << "geometry is untouched";
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  EXPECT_EQ(g.writer_of({"j1.x", 0, 8}), a) << "the writer index follows the rename";
  EXPECT_EQ(g.writer_of({"j1.y", 8, 8}), b);
}

TEST(JobNamespace, RenameArraysRewritesTransientMarks) {
  sched::TaskGraph g;
  g.add(make_task("a", {}, {{"x", 0, 8}}));
  g.add(make_task("b", {{"x", 0, 8}}, {{"y", 0, 8}}));
  g.mark_transient("x");
  g.build();
  g.rename_arrays([](const std::string& name) { return jobs::namespaced(4, name); });
  EXPECT_EQ(g.transient_arrays(), std::vector<std::string>{"j4.x"});
}

// ---------------------------------------------------------------------------
// DOOC_JOBS grammar
// ---------------------------------------------------------------------------

TEST(JobManagerConfigTest, ParsesTheGrammar) {
  const auto cfg = jobs::JobManagerConfig::parse("active=2,queued=8");
  EXPECT_EQ(cfg.max_active, 2);
  EXPECT_EQ(cfg.max_queued, 8);

  const auto defaults = jobs::JobManagerConfig::parse("");
  EXPECT_EQ(defaults.max_active, 0) << "absent keys mean unlimited";
  EXPECT_EQ(defaults.max_queued, 0);

  const auto spaced = jobs::JobManagerConfig::parse(" queued=3 , active=1 ");
  EXPECT_EQ(spaced.max_active, 1);
  EXPECT_EQ(spaced.max_queued, 3);
}

TEST(JobManagerConfigTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)jobs::JobManagerConfig::parse("active"), InvalidArgument);
  EXPECT_THROW((void)jobs::JobManagerConfig::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW((void)jobs::JobManagerConfig::parse("active=two"), InvalidArgument);
  EXPECT_THROW((void)jobs::JobManagerConfig::parse("active=2x"), InvalidArgument);
  EXPECT_THROW((void)jobs::JobManagerConfig::parse("active=-1"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The alias regression: two identical graphs, concurrently
// ---------------------------------------------------------------------------

TEST(JobManagerTest, ConcurrentIdenticalGraphsDoNotAliasBlocks) {
  testutil::TempDir dir("jobs_alias");
  storage::StorageCluster cluster(1, base_config(dir));
  // The shared template arrays both graphs name. Without namespacing the
  // two jobs would write the very same blocks (a write-once violation).
  cluster.node(0).create_array("shared_out", 8, 8);
  cluster.node(0).create_array("shared_sq", 8, 8);

  std::promise<void> gate;
  std::shared_future<void> go = gate.get_future().share();
  const auto make_graph = [&](sched::TaskGraph& g, std::uint64_t value) {
    sched::Task w = make_task("w", {}, {{"shared_out", 0, 8}});
    w.work = [go, value](sched::TaskContext& ctx) {
      go.wait();  // hold both jobs in flight simultaneously
      ctx.output(0).as<std::uint64_t>()[0] = value;
    };
    g.add(std::move(w));
    sched::Task r = make_task("r", {{"shared_out", 0, 8}}, {{"shared_sq", 0, 8}});
    r.work = [](sched::TaskContext& ctx) {
      const std::uint64_t v = ctx.input(0).as<std::uint64_t>()[0];
      ctx.output(0).as<std::uint64_t>()[0] = v * v;
    };
    g.add(std::move(r));
    g.build();
  };
  sched::TaskGraph g1, g2;
  make_graph(g1, 111);
  make_graph(g2, 222);

  sched::EngineConfig ecfg;
  ecfg.compute_slots_per_node = 2;  // both gated writers need a slot at once
  sched::Engine engine(cluster, ecfg);
  jobs::JobManager jm(cluster, engine);
  jobs::JobOptions opts;
  opts.namespace_arrays = true;
  const jobs::JobId id1 = jm.submit(g1, opts);
  const jobs::JobId id2 = jm.submit(g2, opts);
  EXPECT_NE(id1, id2);
  // The rename is visible as soon as submit returns.
  EXPECT_EQ(g1.task(0).outputs[0].array, jobs::namespaced(id1, "shared_out"));
  EXPECT_EQ(g2.task(0).outputs[0].array, jobs::namespaced(id2, "shared_out"));
  EXPECT_EQ(g1.task(1).inputs[0].array, jobs::namespaced(id1, "shared_out"))
      << "reads of job-written arrays follow the writer into the namespace";

  gate.set_value();
  const sched::Report r1 = jm.await(id1);
  const sched::Report r2 = jm.await(id2);
  EXPECT_EQ(r1.tasks_executed, 2u);
  EXPECT_EQ(r2.tasks_executed, 2u);

  // Disjoint blocks, each job's values intact.
  EXPECT_EQ(read_u64(cluster, 0, jobs::namespaced(id1, "shared_out")), 111u);
  EXPECT_EQ(read_u64(cluster, 0, jobs::namespaced(id2, "shared_out")), 222u);
  EXPECT_EQ(read_u64(cluster, 0, jobs::namespaced(id1, "shared_sq")), 111u * 111u);
  EXPECT_EQ(read_u64(cluster, 0, jobs::namespaced(id2, "shared_sq")), 222u * 222u);
}

TEST(JobManagerTest, NamespacedIteratedSpmvReleasesItsIntermediates) {
  testutil::TempDir dir("jobs_release");
  storage::StorageCluster cluster(2, base_config(dir));
  const spmv::CsrMatrix m = spmv::generate_uniform_gap(512, 512, 8.0, 0x10b5);
  const auto owner = spmv::column_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  solver::IteratedSpmvConfig config;
  config.iterations = 3;
  solver::IteratedSpmv driver(cluster, deployed, config);

  sched::Engine engine(cluster, {});
  jobs::JobManager jm(cluster, engine);
  jobs::JobOptions opts;
  opts.namespace_arrays = true;
  const jobs::JobId id = jm.submit(driver.graph(), opts);
  const sched::Report report = jm.await(id);
  EXPECT_EQ(report.tasks_executed, driver.graph().size());

  const std::vector<std::string>& transient = driver.graph().transient_arrays();
  ASSERT_FALSE(transient.empty());
  for (const auto& name : transient) {
    EXPECT_EQ(name.rfind(jobs::job_array_prefix(id), 0), 0u) << name << " follows the rename";
  }
  EXPECT_EQ(testutil::resident_bytes_of(cluster, transient), 0u);
  EXPECT_GT(report.storage.released_bytes, 0u);
  const std::vector<std::string> final_iterate{
      jobs::namespaced(id, spmv::BlockGrid::vector_name("x", 3, 0)),
      jobs::namespaced(id, spmv::BlockGrid::vector_name("x", 3, 1))};
  EXPECT_EQ(testutil::resident_bytes_of(cluster, final_iterate), 512u * sizeof(double))
      << "the result is not transient";
}

// ---------------------------------------------------------------------------
// Single-job parity: the manager adds policy, not behaviour
// ---------------------------------------------------------------------------

TEST(JobManagerTest, SingleJobThroughTheManagerMatchesEngineRun) {
  const auto build = [](storage::StorageCluster& cluster, sched::TaskGraph& g) {
    cluster.node(0).create_array("p_a", 8, 8);
    cluster.node(0).create_array("p_b", 8, 8);
    sched::Task w = make_task("w", {}, {{"p_a", 0, 8}});
    w.work = [](sched::TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 7; };
    g.add(std::move(w));
    sched::Task r = make_task("r", {{"p_a", 0, 8}}, {{"p_b", 0, 8}});
    r.work = [](sched::TaskContext& ctx) {
      ctx.output(0).as<std::uint64_t>()[0] = 2 * ctx.input(0).as<std::uint64_t>()[0];
    };
    g.add(std::move(r));
    g.build();
  };

  testutil::TempDir dir_run("jobs_parity_run");
  storage::StorageCluster c_run(2, base_config(dir_run));
  sched::TaskGraph g_run;
  build(c_run, g_run);
  sched::Engine e_run(c_run, {});
  const sched::Report via_run = e_run.run(g_run);

  testutil::TempDir dir_jm("jobs_parity_jm");
  storage::StorageCluster c_jm(2, base_config(dir_jm));
  sched::TaskGraph g_jm;
  build(c_jm, g_jm);
  sched::Engine e_jm(c_jm, {});
  jobs::JobManager jm(c_jm, e_jm);
  const sched::Report via_jm = jm.await(jm.submit(g_jm));

  EXPECT_EQ(via_jm.tasks_executed, via_run.tasks_executed);
  EXPECT_EQ(via_jm.assignment, via_run.assignment);
  EXPECT_EQ(read_u64(c_jm, 0, "p_a"), read_u64(c_run, 0, "p_a"));
  EXPECT_EQ(read_u64(c_jm, 0, "p_b"), read_u64(c_run, 0, "p_b"));
  EXPECT_EQ(read_u64(c_jm, 0, "p_b"), 14u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(JobManagerTest, AdmissionLimitsQueueThenReject) {
  testutil::TempDir dir("jobs_admit");
  storage::StorageCluster cluster(1, base_config(dir));
  std::promise<void> gate;
  std::shared_future<void> go = gate.get_future().share();
  const auto writer_graph = [&](sched::TaskGraph& g, const std::string& array, bool gated) {
    cluster.node(0).create_array(array, 8, 8);
    sched::Task w = make_task("w", {}, {{array, 0, 8}});
    w.work = [go, gated](sched::TaskContext& ctx) {
      if (gated) go.wait();
      ctx.output(0).as<std::uint64_t>()[0] = 5;
    };
    g.add(std::move(w));
    g.build();
  };
  sched::TaskGraph ga, gb, gc;
  writer_graph(ga, "q_a", /*gated=*/true);
  writer_graph(gb, "q_b", /*gated=*/false);
  writer_graph(gc, "q_c", /*gated=*/false);

  sched::Engine engine(cluster, {});
  jobs::JobManagerConfig jcfg;
  jcfg.max_active = 1;
  jcfg.max_queued = 1;
  jobs::JobManager jm(cluster, engine, jcfg);

  const jobs::JobId id_a = jm.submit(ga);  // dispatched, parked on the gate
  const jobs::JobId id_b = jm.submit(gb);  // queued behind it
  EXPECT_EQ(jm.state(id_a), jobs::JobState::Running);
  EXPECT_EQ(jm.state(id_b), jobs::JobState::Queued);
  EXPECT_EQ(jm.active_count(), 1u);
  EXPECT_EQ(jm.queued_count(), 1u);

  EXPECT_THROW((void)jm.submit(gc), jobs::AdmissionError);
  EXPECT_EQ(jm.rejected_count(), 1u);

  gate.set_value();
  EXPECT_EQ(jm.await(id_a).tasks_executed, 1u);
  EXPECT_EQ(jm.await(id_b).tasks_executed, 1u) << "the on-done pump dispatches the queue";
  EXPECT_EQ(jm.state(id_a), jobs::JobState::Unknown) << "awaited jobs are reaped";
  EXPECT_EQ(jm.active_count(), 0u);
  EXPECT_EQ(read_u64(cluster, 0, "q_a"), 5u);
  EXPECT_EQ(read_u64(cluster, 0, "q_b"), 5u);
}

// Lifetime regression for the on-done pump. await() of a queued job must
// not reach the engine before the pump's engine submit has, and a manager
// destroyed right after its last await must not be touched by an on-done
// callback still running. Repeated so the tsan preset sees many
// interleavings.
TEST(JobManagerTest, QueuedJobsAwaitAndTeardownRaceFree) {
  testutil::TempDir dir("jobs_pump");
  storage::StorageCluster cluster(1, base_config(dir));
  sched::Engine engine(cluster, {});
  jobs::JobManagerConfig jcfg;
  jcfg.max_active = 1;
  for (int round = 0; round < 20; ++round) {
    jobs::JobManager jm(cluster, engine, jcfg);
    std::deque<sched::TaskGraph> graphs(3);
    std::vector<jobs::JobId> ids;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const std::string array = "pump_" + std::to_string(round) + "_" + std::to_string(i);
      cluster.node(0).create_array(array, 8, 8);
      sched::Task w = make_task("w", {}, {{array, 0, 8}});
      w.work = [](sched::TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 9; };
      graphs[i].add(std::move(w));
      graphs[i].build();
      ids.push_back(jm.submit(graphs[i]));
    }
    for (const jobs::JobId id : ids) EXPECT_EQ(jm.await(id).tasks_executed, 1u);
    EXPECT_EQ(jm.active_count(), 0u) << "the on-done callback runs before await returns";
  }
}

// ---------------------------------------------------------------------------
// Concurrent jobs on the real engine under a shared inflight-load budget
// ---------------------------------------------------------------------------

void import_blocks(storage::StorageNode& node, const std::string& name, int blocks,
                   std::uint64_t block_bytes) {
  const std::string path = node.scratch_dir() + "/" + name + ".bin";
  std::ofstream out(path, std::ios::binary);
  std::vector<char> data(static_cast<std::size_t>(blocks) * block_bytes, 'z');
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  node.import_file(name, path, block_bytes);
}

TEST(EngineMultiJob, ConcurrentJobsShareTheInflightBudgetCorrectly) {
  constexpr std::uint64_t kBlock = 64 * 1024;
  testutil::TempDir dir("jobs_budget");
  storage::StorageConfig cfg = base_config(dir);
  cfg.memory_budget = 16ull << 20;
  cfg.default_block_size = 4096;
  // One block in flight at a time: every further load queues through the
  // per-job WDRR arbiter, so two jobs genuinely contend for admission.
  cfg.max_inflight_load_bytes = kBlock;
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  std::filesystem::create_directories(node.scratch_dir());
  import_blocks(node, "ma", 8, kBlock);
  import_blocks(node, "mb", 8, kBlock);

  const auto reader_graph = [&](sched::TaskGraph& g, const std::string& src,
                                const std::string& out_prefix) {
    for (int i = 0; i < 8; ++i) {
      const std::string out = out_prefix + std::to_string(i);
      node.create_array(out, 8, 8);
      sched::Task t = make_task(out, {{src, static_cast<std::uint64_t>(i) * kBlock, 1024}},
                                {{out, 0, 8}});
      t.seq = i;
      t.work = [](sched::TaskContext& ctx) {
        ctx.output(0).as<std::uint64_t>()[0] = static_cast<std::uint64_t>(ctx.input(0).bytes()[0]);
      };
      g.add(std::move(t));
    }
    g.build();
  };
  sched::TaskGraph ga, gb;
  reader_graph(ga, "ma", "bud_a");
  reader_graph(gb, "mb", "bud_b");

  sched::EngineConfig ecfg;
  ecfg.compute_slots_per_node = 2;
  ecfg.prefetch_window = 4;  // park several loads so admission actually queues
  sched::Engine engine(cluster, ecfg);
  sched::SubmitOptions oa;
  oa.weight = 2.0;
  sched::SubmitOptions ob;
  ob.priority = 1;
  const auto id_a = engine.submit(ga, oa);
  const auto id_b = engine.submit(gb, ob);
  const sched::Report ra = engine.await(id_a);
  const sched::Report rb = engine.await(id_b);

  EXPECT_EQ(ra.tasks_executed, 8u);
  EXPECT_EQ(rb.tasks_executed, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(read_u64(cluster, 0, "bud_a" + std::to_string(i)), static_cast<std::uint64_t>('z'));
    EXPECT_EQ(read_u64(cluster, 0, "bud_b" + std::to_string(i)), static_cast<std::uint64_t>('z'));
  }
}

// ---------------------------------------------------------------------------
// The DES replay: fairness and the overload-liveness property
// ---------------------------------------------------------------------------

/// A job of `tasks` independent reads of the shared durable inputs, each
/// writing one private (namespaced) intermediate.
sched::TaskGraph make_sim_job(int jid, int tasks, solver::VirtualArrayCreator& creator,
                              std::uint64_t bytes) {
  sched::TaskGraph g;
  for (int i = 0; i < tasks; ++i) {
    const std::string out = jobs::namespaced(static_cast<jobs::JobId>(jid),
                                             "o" + std::to_string(i));
    creator.create(out, bytes, i % 2);
    sched::Task t;
    t.name = "j" + std::to_string(jid) + ".t" + std::to_string(i);
    t.kind = "multiply";
    t.inputs = {{"m" + std::to_string(i % 4), 0, bytes}};
    t.outputs = {{out, 0, bytes}};
    t.est_flops = 5e8;
    t.seq = i;
    g.add(std::move(t));
  }
  g.build();
  return g;
}

TEST(SimMultiJob, JainIndexComputesTheTextbookValues) {
  EXPECT_DOUBLE_EQ(sim::jain({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(sim::jain({3.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(sim::jain({}), 1.0) << "no jobs: trivially fair";
}

TEST(SimMultiJob, EqualTenantsFinishFairlyUnderABudget) {
  constexpr std::uint64_t kArray = 32ull << 20;
  solver::VirtualArrayCreator creator;
  for (int i = 0; i < 4; ++i) creator.add_durable("m" + std::to_string(i), kArray, i % 2);
  std::deque<sched::TaskGraph> graphs;
  std::vector<sim::SimJob> submit;
  for (int j = 0; j < 3; ++j) {
    graphs.push_back(make_sim_job(j, 4, creator, kArray));
    submit.push_back({&graphs.back(), /*arrival=*/0.0, /*weight=*/1.0, /*priority=*/0});
  }

  sim::SimResources res;
  res.inflight_load_budget = kArray;  // one fetch per node at a time
  sim::SimEngine sim(2, res, creator.arrays());
  const sim::SimMetrics m = sim.run_jobs(submit);

  ASSERT_EQ(m.jobs.size(), 3u);
  std::vector<double> latencies;
  for (const auto& j : m.jobs) {
    EXPECT_GT(j.finish, 0.0);
    EXPECT_GT(j.latency, 0.0);
    EXPECT_EQ(j.tasks, 4u);
    latencies.push_back(j.latency);
  }
  EXPECT_GT(m.deferred_fetches, 0u) << "a one-fetch budget must queue someone";
  EXPECT_GE(sim::jain(latencies), 0.9)
      << "equal-weight tenants at saturation share the budget fairly";
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.disk_bytes, 0u);
}

TEST(SimMultiJob, SustainedOverloadStillCompletesEveryJob) {
  constexpr std::uint64_t kArray = 32ull << 20;
  solver::VirtualArrayCreator creator;
  for (int i = 0; i < 4; ++i) creator.add_durable("m" + std::to_string(i), kArray, i % 2);
  std::deque<sched::TaskGraph> graphs;
  std::vector<sim::SimJob> submit;
  // Eight jobs with skewed weights and priorities arriving faster than the
  // budget can serve them: the aging guard must keep the light, low-priority
  // tenants progressing.
  for (int j = 0; j < 8; ++j) {
    graphs.push_back(make_sim_job(j, 3, creator, kArray));
    submit.push_back({&graphs.back(), /*arrival=*/0.02 * j, /*weight=*/1.0 + (j % 3),
                      /*priority=*/j % 2});
  }

  sim::SimResources res;
  res.inflight_load_budget = kArray;
  sim::SimEngine sim(2, res, creator.arrays());
  const sim::SimMetrics m = sim.run_jobs(submit);

  ASSERT_EQ(m.jobs.size(), 8u);
  for (const auto& j : m.jobs) {
    EXPECT_GE(j.finish, j.arrival) << "job " << j.job;
    EXPECT_GT(j.latency, 0.0) << "job " << j.job << " must complete under overload";
    EXPECT_EQ(j.tasks, 3u);
  }
  EXPECT_GT(m.deferred_fetches, 0u);
  EXPECT_GT(m.makespan, 0.0);
}

TEST(SimMultiJob, AnEmptyJobFinishesOnArrival) {
  constexpr std::uint64_t kArray = 32ull << 20;
  solver::VirtualArrayCreator creator;
  for (int i = 0; i < 4; ++i) creator.add_durable("m" + std::to_string(i), kArray, i % 2);
  sched::TaskGraph empty;
  empty.build();
  const sched::TaskGraph g = make_sim_job(1, 4, creator, kArray);

  sim::SimEngine sim(2, sim::SimResources{}, creator.arrays());
  sim::SimMetrics m;
  ASSERT_NO_THROW(m = sim.run_jobs({{&empty, 0.0, 1.0, 0}, {&g, 0.0, 1.0, 0}}));
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].tasks, 0u);
  EXPECT_EQ(m.jobs[0].latency, 0.0) << "a job with nothing to do settles on arrival";
  EXPECT_EQ(m.jobs[1].tasks, 4u);
  EXPECT_GT(m.jobs[1].latency, 0.0);
  EXPECT_EQ(m.makespan, m.jobs[1].finish);
}

TEST(SimMultiJob, JobsWhoseEveryTaskIsPoisonedStillSettle) {
  constexpr std::uint64_t kArray = 32ull << 20;
  solver::VirtualArrayCreator creator;
  for (int i = 0; i < 4; ++i) creator.add_durable("m" + std::to_string(i), kArray, i % 2);
  std::deque<sched::TaskGraph> graphs;
  std::vector<sim::SimJob> submit;
  for (int j = 0; j < 2; ++j) {
    graphs.push_back(make_sim_job(j, 4, creator, kArray));
    submit.push_back({&graphs.back(), /*arrival=*/0.1 * j, /*weight=*/1.0, /*priority=*/0});
  }

  sim::SimEngine sim(2, sim::SimResources{}, creator.arrays());
  sim.set_fault_plan(std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::parse("read_error=1.0,retries=2,backoff=1us:2us")));
  sim::SimMetrics m;
  ASSERT_NO_THROW(m = sim.run_jobs(submit)) << "poisoned jobs must drain, not deadlock";
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.tasks_faulted, graphs[0].size() + graphs[1].size());
  for (const auto& j : m.jobs) {
    EXPECT_EQ(j.tasks, 0u) << "job " << j.job;
    EXPECT_GE(j.finish, j.arrival) << "job " << j.job;
  }
  EXPECT_GT(m.fetch_faults, 0u);
}

/// Chains of `chain` tasks pinned to each of `nodes` nodes, reading the
/// shared durable inputs d<n>_<i> and writing namespaced outputs.
sched::TaskGraph make_chain_job(int jid, int nodes, int chain,
                                solver::VirtualArrayCreator& creator) {
  sched::TaskGraph g;
  for (int n = 0; n < nodes; ++n) {
    for (int i = 0; i < chain; ++i) {
      const auto out = [&](int k) {
        return jobs::namespaced(static_cast<jobs::JobId>(jid),
                                "c" + std::to_string(n) + "_" + std::to_string(k));
      };
      sched::Task t;
      t.name = "j" + std::to_string(jid) + ".t" + std::to_string(n) + "_" + std::to_string(i);
      t.kind = "test";
      t.inputs.push_back({"d" + std::to_string(n) + "_" + std::to_string(i), 0, 1 << 20});
      if (i > 0) t.inputs.push_back({out(i - 1), 0, 8});
      t.outputs.push_back({out(i), 0, 8});
      creator.create(out(i), 8, n);
      t.est_flops = 5e7;  // 0.1 s at the default 0.5 GF/s
      t.seq = i;
      t.preferred_node = n;
      g.add(std::move(t));
    }
  }
  g.build();
  return g;
}

TEST(SimMultiJob, FaultsTelemetryAndStragglersReachEveryJob) {
  constexpr int kNodes = 4;
  constexpr int kChain = 20;
  solver::VirtualArrayCreator creator;
  for (int n = 0; n < kNodes; ++n) {
    for (int i = 0; i < kChain; ++i) {
      creator.add_durable("d" + std::to_string(n) + "_" + std::to_string(i), 1 << 20, n);
    }
  }
  std::deque<sched::TaskGraph> graphs;
  for (int j = 0; j < 2; ++j) graphs.push_back(make_chain_job(j, kNodes, kChain, creator));

  sim::SimResources res;
  res.telemetry = obs::telemetry::TelemetryConfig::parse("on,interval=250,slow=4,zscore=100");
  res.node_compute_factor[3] = 8.0;  // node 3 is 8x slower
  const auto run = [&] {
    sim::SimEngine sim(kNodes, res, creator.arrays());
    sim.set_fault_plan(std::make_shared<fault::FaultPlan>(
        fault::FaultPlan::parse("seed=5,read_error=0.2,retries=6")));
    return sim.run_jobs({{&graphs[0], 0.0, 1.0, 0}, {&graphs[1], 0.5, 2.0, 1}});
  };
  const sim::SimMetrics a = run();

  EXPECT_GT(a.fetch_faults, 0u) << "20% read errors must fire on the multi-job path";
  EXPECT_GT(a.telemetry_frames, 0u);
  bool straggler3 = false;
  for (const auto& ev : a.health) {
    if (ev.kind == obs::telemetry::HealthKind::Straggler && ev.node == 3) straggler3 = true;
  }
  EXPECT_TRUE(straggler3) << "the 8x-slower node must be flagged";
  ASSERT_EQ(a.jobs.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(a.jobs[j].tasks, graphs[j].size()) << "job " << j << " must complete";
    EXPECT_GT(a.jobs[j].latency, 0.0);
  }
  EXPECT_EQ(a.tasks_faulted, 0u);

  // Deterministic: a second run gives identical metrics and verdicts.
  const sim::SimMetrics b = run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.fetch_faults, b.fetch_faults);
  EXPECT_EQ(a.fetch_retries, b.fetch_retries);
  EXPECT_EQ(a.telemetry_frames, b.telemetry_frames);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) EXPECT_EQ(a.jobs[j].finish, b.jobs[j].finish);
  ASSERT_EQ(a.health.size(), b.health.size());
  for (std::size_t i = 0; i < a.health.size(); ++i) {
    EXPECT_EQ(a.health[i].kind, b.health[i].kind);
    EXPECT_EQ(a.health[i].node, b.health[i].node);
    EXPECT_EQ(a.health[i].ts_ns, b.health[i].ts_ns);
  }
}

}  // namespace
}  // namespace dooc
