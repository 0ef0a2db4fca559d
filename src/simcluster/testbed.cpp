#include "simcluster/testbed.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dooc::sim {

using solver::VirtualArrayCreator;
using spmv::BlockGrid;
using spmv::DeployedMatrix;

std::uint64_t TestbedExperiment::matrix_dimension() const {
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(nodes))));
  return rows_per_node * static_cast<std::uint64_t>(s);
}

namespace {

TestbedResult run_impl(int compute_nodes, int grid_k, std::uint64_t dimension,
                       std::uint64_t block_bytes, std::uint64_t block_nnz,
                       const TestbedExperiment& experiment, const SimResources& resources) {
  const BlockGrid grid(dimension, grid_k);
  const auto owner = spmv::square_tile_owner(compute_nodes, grid_k);

  VirtualArrayCreator creator;
  DeployedMatrix dm;
  dm.grid = grid;
  dm.prefix = "A";
  const auto cells = static_cast<std::size_t>(grid_k) * grid_k;
  dm.owner.resize(cells);
  dm.nnz.assign(cells, block_nnz);
  dm.bytes.assign(cells, block_bytes);
  for (int u = 0; u < grid_k; ++u) {
    for (int v = 0; v < grid_k; ++v) {
      const int node = owner(u, v);
      dm.owner[static_cast<std::size_t>(u) * grid_k + v] = node;
      creator.add_durable(dm.name_of(u, v), block_bytes, node);
    }
  }
  for (int u = 0; u < grid_k; ++u) {
    creator.add_durable(BlockGrid::vector_name("x", 0, u), grid.part_size(u) * sizeof(double),
                        owner(u, u));
  }

  solver::IteratedSpmvConfig config;
  config.iterations = experiment.iterations;
  config.mode = experiment.mode;
  config.inter_iteration_sync = true;  // the Lanczos reorthogonalization point
  solver::IteratedSpmv driver(creator, dm, config);

  SimEngine engine(compute_nodes, resources, creator.arrays());
  engine.set_fault_plan(experiment.fault_plan);
  TestbedResult result;
  result.experiment = experiment;
  result.metrics = engine.run(driver.graph(), experiment.policy);
  return result;
}

}  // namespace

TestbedResult run_testbed(const TestbedExperiment& experiment, const SimResources& resources) {
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(experiment.nodes))));
  DOOC_REQUIRE(s * s == experiment.nodes, "testbed runs need a perfect-square node count");
  const int grid_k = experiment.blocks_per_node_side * s;
  const std::uint64_t dim = experiment.matrix_dimension();
  const auto blocks_per_node = static_cast<std::uint64_t>(experiment.blocks_per_node_side) *
                               experiment.blocks_per_node_side;
  return run_impl(experiment.nodes, grid_k, dim, experiment.submatrix_bytes,
                  experiment.nnz_per_node / blocks_per_node, experiment, resources);
}

TestbedResult run_testbed_oversized(int compute_nodes, int matrix_nodes,
                                    const TestbedExperiment& base,
                                    const SimResources& resources) {
  const int sc = static_cast<int>(std::lround(std::sqrt(static_cast<double>(compute_nodes))));
  const int sm = static_cast<int>(std::lround(std::sqrt(static_cast<double>(matrix_nodes))));
  DOOC_REQUIRE(sc * sc == compute_nodes && sm * sm == matrix_nodes,
               "node counts must be perfect squares");
  const int grid_k = base.blocks_per_node_side * sm;
  DOOC_REQUIRE(grid_k % sc == 0, "matrix grid must tile over the compute nodes");

  TestbedExperiment experiment = base;
  experiment.nodes = compute_nodes;
  // The experiment describes the oversized matrix: scale the per-node
  // figures so matrix_terabytes()/total_nnz() report the full matrix.
  const double scale = static_cast<double>(matrix_nodes) / compute_nodes;
  experiment.rows_per_node = static_cast<std::uint64_t>(base.rows_per_node * sm / sc);
  experiment.nnz_per_node = static_cast<std::uint64_t>(static_cast<double>(base.nnz_per_node) * scale);
  experiment.blocks_per_node_side = grid_k / sc;

  const std::uint64_t dim = base.rows_per_node * static_cast<std::uint64_t>(sm);
  const auto blocks = static_cast<std::uint64_t>(grid_k) * grid_k;
  const auto total_nnz =
      static_cast<std::uint64_t>(static_cast<double>(base.nnz_per_node) * matrix_nodes);
  return run_impl(compute_nodes, grid_k, dim, base.submatrix_bytes, total_nnz / blocks,
                  experiment, resources);
}

}  // namespace dooc::sim
