// Integration tests: the iterated-SpMV driver on the full stack
// (storage + hierarchical scheduler + engine), checked against a dense
// in-memory reference.
#include <gtest/gtest.h>

#include <map>

#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "test_util.hpp"

namespace dooc::solver {
namespace {

using spmv::BlockGrid;
using spmv::CsrMatrix;

struct Scenario {
  int nodes;
  int k;
  int iterations;
  ReductionMode mode;
  sched::LocalPolicy policy;
  bool inter_sync;
};

std::vector<double> reference_iterate(const CsrMatrix& m, std::vector<double> x, int iters) {
  std::vector<double> y(m.rows);
  for (int i = 0; i < iters; ++i) {
    m.multiply(x, y);
    x = y;
  }
  return x;
}

class IteratedSpmvCorrectness : public ::testing::TestWithParam<Scenario> {};

TEST_P(IteratedSpmvCorrectness, MatchesDenseReference) {
  const Scenario s = GetParam();
  testutil::TempDir dir("itspmv");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 64ull << 20;
  storage::StorageCluster cluster(s.nodes, cfg);

  const std::uint64_t n = 96;
  CsrMatrix m = spmv::generate_uniform_gap(n, n, 2.0, 31337);
  // Scale to keep iterates in a sane numeric range.
  for (auto& v : m.values) v *= 0.1;

  const auto owner = spmv::column_strip_owner(s.nodes);
  const auto deployed = spmv::deploy_matrix(cluster, m, s.k, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 0.01 * static_cast<double>(i); });

  IteratedSpmvConfig config;
  config.iterations = s.iterations;
  config.mode = s.mode;
  config.inter_iteration_sync = s.inter_sync;
  IteratedSpmv driver(cluster, deployed, config);

  sched::EngineConfig ecfg;
  ecfg.local_policy = s.policy;
  sched::Engine engine(cluster, ecfg);
  const auto report = driver.run(engine);
  EXPECT_EQ(report.tasks_executed, driver.graph().size());

  std::vector<double> x0(n);
  for (std::uint64_t i = 0; i < n; ++i) x0[i] = 1.0 + 0.01 * static_cast<double>(i);
  const auto expect = reference_iterate(m, x0, s.iterations);
  const auto got = driver.gather_result();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-9 * (1.0 + std::abs(expect[i]))) << "at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, IteratedSpmvCorrectness,
    ::testing::Values(
        Scenario{1, 3, 2, ReductionMode::Simple, sched::LocalPolicy::Fifo, true},
        Scenario{1, 3, 2, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, true},
        Scenario{3, 3, 2, ReductionMode::Simple, sched::LocalPolicy::DataAware, true},
        Scenario{3, 3, 2, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, true},
        Scenario{3, 3, 3, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, false},
        Scenario{3, 3, 2, ReductionMode::Interleaved, sched::LocalPolicy::BackAndForth, true},
        Scenario{2, 4, 2, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, true},
        Scenario{4, 4, 3, ReductionMode::Simple, sched::LocalPolicy::DataAware, true}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      const Scenario& s = info.param;
      return "n" + std::to_string(s.nodes) + "_k" + std::to_string(s.k) + "_i" +
             std::to_string(s.iterations) + "_" +
             (s.mode == ReductionMode::Simple ? "simple" : "interleaved") + "_" +
             (s.policy == sched::LocalPolicy::Fifo
                  ? "fifo"
                  : (s.policy == sched::LocalPolicy::DataAware ? "aware" : "baf")) +
             (s.inter_sync ? "_sync" : "_nosync");
    });

TEST(IteratedSpmv, CommandListMatchesFig3Shape) {
  testutil::TempDir dir("fig3");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(1, cfg);
  CsrMatrix m = spmv::generate_uniform_gap(30, 30, 2.0, 9);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = ReductionMode::Simple;
  IteratedSpmv driver(cluster, deployed, config);

  const std::string commands = driver.command_list();
  // 9 multiplies and 3 sums per iteration, 2 iterations (Fig. 3 text).
  EXPECT_EQ(std::count(commands.begin(), commands.end(), '*'), 18);
  EXPECT_NE(commands.find("x_{0,0}^1 = A_{0,0} * x_0^0"), std::string::npos);
  EXPECT_NE(commands.find("x_0^1 = x_{0,0}^1 + x_{0,1}^1 + x_{0,2}^1"), std::string::npos);
  EXPECT_NE(commands.find("x_{2,2}^2 = A_{2,2} * x_2^1"), std::string::npos);

  const std::string deps = driver.dependency_list();
  // Fig. 4: second-iteration multiply x_{u,v}^2 depends on x_v^1.
  EXPECT_NE(deps.find("x_{0,1}^2 (A_0_1) <- x_1^1"), std::string::npos);
}

TEST(IteratedSpmv, DagSizesMatchFig4) {
  testutil::TempDir dir("fig4");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(1, cfg);
  CsrMatrix m = spmv::generate_uniform_gap(30, 30, 2.0, 9);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });

  // Without syncs: exactly the Fig. 4 DAG (9 multiplies + 3 sums per iter).
  IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = ReductionMode::Simple;
  config.inter_iteration_sync = false;
  IteratedSpmv driver(cluster, deployed, config);
  // Simple mode adds one syncm task per iteration.
  EXPECT_EQ(driver.graph().size(), 2u * (9 + 3 + 1));

  std::size_t mults = 0, sums = 0;
  for (sched::TaskId t = 0; t < driver.graph().size(); ++t) {
    const auto& kind = driver.graph().task(t).kind;
    if (kind == "multiply") ++mults;
    if (kind == "sum") ++sums;
  }
  EXPECT_EQ(mults, 18u);
  EXPECT_EQ(sums, 6u);
}

TEST(IteratedSpmv, CleanupDeletesIntermediatesKeepsResult) {
  testutil::TempDir dir("cleanup");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(1, cfg);
  CsrMatrix m = spmv::generate_uniform_gap(30, 30, 2.0, 9);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  IteratedSpmvConfig config;
  config.iterations = 2;
  IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, {});
  driver.run(engine);
  driver.cleanup_intermediates();

  EXPECT_FALSE(cluster.node(0).array_meta("xp1_0_0").has_value());
  EXPECT_FALSE(cluster.node(0).array_meta("x1_0").has_value());
  EXPECT_TRUE(cluster.node(0).array_meta("x2_0").has_value());
}

/// A graph-only matrix: grid, owners and nominal sizes, no storage.
spmv::DeployedMatrix virtual_matrix(int k, const spmv::BlockOwner& owner) {
  spmv::DeployedMatrix dm;
  dm.grid = BlockGrid(64 * static_cast<std::uint64_t>(k), k);
  const auto cells = static_cast<std::size_t>(k) * k;
  dm.owner.resize(cells);
  dm.nnz.assign(cells, 64);
  dm.bytes.assign(cells, 1024);
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) dm.owner[static_cast<std::size_t>(u) * k + v] = owner(u, v);
  }
  return dm;
}

TEST(IteratedSpmv, ReducesEachRowWhereItsIterateIsReadNext) {
  constexpr int kNodes = 4;
  constexpr int kK = 8;
  struct Layout {
    const char* name;
    spmv::BlockOwner owner;
    bool one_owner_per_column;
  };
  const Layout layouts[] = {
      {"column_strip", spmv::column_strip_owner(kNodes), true},
      {"row_strip", spmv::row_strip_owner(kNodes), false},
      {"square_tile", spmv::square_tile_owner(kNodes, kK), false},
  };
  for (const Layout& layout : layouts) {
    for (const ReductionMode mode : {ReductionMode::Simple, ReductionMode::Interleaved}) {
      SCOPED_TRACE(std::string(layout.name) +
                   (mode == ReductionMode::Simple ? " simple" : " interleaved"));
      const spmv::DeployedMatrix dm = virtual_matrix(kK, layout.owner);
      VirtualArrayCreator creator;
      IteratedSpmvConfig config;
      config.iterations = 2;
      config.mode = mode;
      IteratedSpmv driver(creator, dm, config);

      std::map<std::string, int> sum_node;  // result array -> preferred node
      for (sched::TaskId t = 0; t < driver.graph().size(); ++t) {
        const sched::Task& task = driver.graph().task(t);
        if (task.kind == "sum") sum_node[task.outputs[0].array] = task.preferred_node;
      }
      ASSERT_EQ(sum_node.size(), 2u * kK);
      for (int i = 1; i <= 2; ++i) {
        for (int u = 0; u < kK; ++u) {
          // Column strips: node u's strip is the only reader of x_u, and
          // x_u's vector home owner(u, u). Otherwise the row's first node.
          const int expect = layout.one_owner_per_column ? u % kNodes : dm.owner_of(u, 0);
          if (layout.one_owner_per_column) EXPECT_EQ(expect, dm.owner_of(u, u));
          const std::string x = BlockGrid::vector_name("x", i, u);
          EXPECT_EQ(sum_node.at(x), expect) << x;
          EXPECT_EQ(creator.arrays().at(x).home_node, expect) << x;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dooc::solver
