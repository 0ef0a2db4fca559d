// Cross-module integration & regression tests:
//   * the Fig. 5 load-count claim as a regression test on the real backend,
//   * multi-slot engines, throttled-overlap behaviour,
//   * distributed vector ops,
//   * an end-to-end CI-Hamiltonian -> deploy -> iterated-SpMV -> verify run,
//   * storage stress under concurrent mixed traffic.
#include <gtest/gtest.h>

#include <thread>

#include "ci/hamiltonian.hpp"
#include "sched/engine.hpp"
#include "solver/dist_vector.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

// ---------------------------------------------------------------------------
// Fig. 5 regression: the data-aware local scheduler saves one matrix load
// per node per subsequent iteration under a one-block memory budget.
// ---------------------------------------------------------------------------

std::uint64_t run_fig5(sched::LocalPolicy policy) {
  testutil::TempDir dir("fig5reg");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 16ull << 20;  // one ~9.3 MB sub-matrix fits, two do not
  storage::StorageCluster cluster(3, cfg);

  auto m = spmv::generate_uniform_gap(3 * 2048, 3 * 2048, 4.0, 0xf15);
  const auto owner = spmv::row_strip_owner(3);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });

  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  config.inter_iteration_sync = true;
  solver::IteratedSpmv driver(cluster, deployed, config);

  sched::EngineConfig ecfg;
  ecfg.local_policy = policy;
  ecfg.prefetch_window = 0;
  sched::Engine engine(cluster, ecfg);
  const auto report = driver.run(engine);
  return report.storage.disk_reads;
}

TEST(Fig5Regression, DataAwareSavesOneLoadPerNodePerIteration) {
  const auto fifo_reads = run_fig5(sched::LocalPolicy::Fifo);
  const auto aware_reads = run_fig5(sched::LocalPolicy::DataAware);
  // FIFO: 3 loads/node in both iterations = 18. Data-aware: 18 - 3 = 15.
  EXPECT_EQ(fifo_reads, 18u);
  EXPECT_EQ(aware_reads, 15u);
}

// ---------------------------------------------------------------------------
// Engine configurations
// ---------------------------------------------------------------------------

TEST(EngineIntegration, MultipleComputeSlotsStayCorrect) {
  testutil::TempDir dir("slots");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(2, cfg);
  auto m = spmv::generate_uniform_gap(128, 128, 2.0, 5);
  for (auto& v : m.values) v *= 0.05;
  const auto owner = spmv::column_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 4, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 0.001 * static_cast<double>(i); });
  solver::IteratedSpmvConfig config;
  config.iterations = 3;
  solver::IteratedSpmv driver(cluster, deployed, config);
  sched::EngineConfig ecfg;
  ecfg.compute_slots_per_node = 3;
  ecfg.split_threads_per_node = 2;
  sched::Engine engine(cluster, ecfg);
  driver.run(engine);

  std::vector<double> x(128);
  for (std::size_t i = 0; i < 128; ++i) x[i] = 1.0 + 0.001 * static_cast<double>(i);
  std::vector<double> y(128);
  for (int it = 0; it < 3; ++it) {
    m.multiply(x, y);
    x.swap(y);
  }
  const auto got = driver.gather_result();
  for (std::size_t i = 0; i < 128; ++i) EXPECT_NEAR(got[i], x[i], 1e-12);
}

TEST(EngineIntegration, ThrottledDeviceOverlapsWithPrefetch) {
  // With a throttled device and prefetch, total time ~ max(io, compute),
  // far below io + compute.
  auto run = [](int window) {
    testutil::TempDir dir("ovl");
    storage::StorageConfig cfg;
    cfg.scratch_root = dir.str();
    cfg.throttle_read_bw = 100e6;
    cfg.io_workers = 2;
    cfg.memory_budget = 64ull << 20;
    storage::StorageCluster cluster(1, cfg);
    auto m = spmv::generate_uniform_gap(4096, 4096, 2.5, 0x77);
    const auto owner = spmv::column_strip_owner(1);
    const auto deployed = spmv::deploy_matrix(cluster, m, 4, owner);
    spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                    [](std::uint64_t) { return 1.0; });
    solver::IteratedSpmvConfig config;
    config.iterations = 1;
    solver::IteratedSpmv driver(cluster, deployed, config);
    sched::EngineConfig ecfg;
    ecfg.prefetch_window = window;
    sched::Engine engine(cluster, ecfg);
    Stopwatch sw;
    driver.run(engine);
    return sw.seconds();
  };
  const double with_prefetch = run(3);
  const double without = run(0);
  EXPECT_LT(with_prefetch, without);
}

// ---------------------------------------------------------------------------
// Distributed vector ops
// ---------------------------------------------------------------------------

TEST(DistVector, CreateGatherDotFlushRemove) {
  testutil::TempDir dir("dvec");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(2, cfg);
  spmv::BlockGrid grid(100, 4);
  solver::DistVectorOps vecs(cluster, grid, spmv::column_strip_owner(2));

  vecs.create("a", 0, [](std::uint64_t i) { return static_cast<double>(i); });
  EXPECT_TRUE(vecs.exists("a", 0));
  EXPECT_FALSE(vecs.exists("ghost", 0));

  const auto a = vecs.gather("a", 0);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_DOUBLE_EQ(a[57], 57.0);

  vecs.flush("a", 0);
  vecs.remove("a", 0);
  EXPECT_FALSE(vecs.exists("a", 0));
}

// ---------------------------------------------------------------------------
// CI end-to-end: Hamiltonian built from physics, solved out of core.
// ---------------------------------------------------------------------------

TEST(CiEndToEnd, HamiltonianIteratedSpmvMatchesInMemory) {
  const ci::NucleusConfig nucleus{2, 1, 2, 1};
  const auto h = ci::build_hamiltonian(nucleus);
  ASSERT_GT(h.rows, 8u);

  testutil::TempDir dir("ci2e");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 1ull << 20;
  storage::StorageCluster cluster(2, cfg);
  const auto owner = spmv::column_strip_owner(2);
  const int k = 3;
  auto scaled = h;
  for (auto& v : scaled.values) v *= 0.01;
  const auto deployed = spmv::deploy_matrix(cluster, scaled, k, owner, "H");
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  solver::IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, {});
  driver.run(engine);

  std::vector<double> x(h.rows);
  for (std::uint64_t i = 0; i < h.rows; ++i) x[i] = 1.0 / (1.0 + static_cast<double>(i));
  std::vector<double> y(h.rows);
  for (int it = 0; it < 2; ++it) {
    scaled.multiply(x, y);
    x.swap(y);
  }
  const auto got = driver.gather_result();
  for (std::uint64_t i = 0; i < h.rows; ++i) EXPECT_NEAR(got[i], x[i], 1e-12);
}

// ---------------------------------------------------------------------------
// Storage stress: concurrent mixed readers/writers across nodes.
// ---------------------------------------------------------------------------

TEST(StorageStress, ConcurrentMixedTrafficKeepsInvariants) {
  testutil::TempDir dir("stress");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 1 << 16;  // tiny: force constant eviction
  storage::StorageCluster cluster(3, cfg);

  constexpr int kArraysPerNode = 12;
  constexpr std::uint64_t kBytes = 4096;

  // Phase 1: every node writes its arrays concurrently.
  std::vector<std::thread> writers;
  for (int n = 0; n < 3; ++n) {
    writers.emplace_back([&, n] {
      for (int a = 0; a < kArraysPerNode; ++a) {
        const std::string name = "s" + std::to_string(n) + "_" + std::to_string(a);
        auto& node = cluster.node(n);
        node.create_array(name, kBytes, kBytes);
        auto w = node.request_write({name, 0, kBytes}).get();
        auto span = w.as<std::uint64_t>();
        for (std::size_t i = 0; i < span.size(); ++i) {
          span[i] = static_cast<std::uint64_t>(n) * 1000 + static_cast<std::uint64_t>(a);
        }
        w.release();
        node.flush_array(name);
      }
    });
  }
  for (auto& t : writers) t.join();

  // Phase 2: every node reads *everyone's* arrays concurrently, repeatedly.
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 3; ++reader) {
    readers.emplace_back([&, reader] {
      for (int round = 0; round < 3; ++round) {
        for (int n = 0; n < 3; ++n) {
          for (int a = 0; a < kArraysPerNode; ++a) {
            const std::string name = "s" + std::to_string(n) + "_" + std::to_string(a);
            auto r = cluster.node(reader).request_read({name, 0, kBytes}).get();
            const auto span = r.as<std::uint64_t>();
            const auto expect =
                static_cast<std::uint64_t>(n) * 1000 + static_cast<std::uint64_t>(a);
            for (auto v : span) {
              if (v != expect) {
                ++failures;
                break;
              }
            }
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Tiny budget + 36 arrays x 3 copies: evictions must have happened and
  // every read still saw the right bytes.
  EXPECT_GT(cluster.total_stats().evictions, 0u);
}

}  // namespace
}  // namespace dooc
