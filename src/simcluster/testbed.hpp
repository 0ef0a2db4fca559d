// The paper's SSD-testbed experiment (§V), reproduced on the DES backend.
//
// Workload (paper): runs on a perfect-square number of nodes; each node is
// responsible for a 50M-row block of the matrix holding ~12.8 billion
// non-zeros, decomposed into a 5×5 grid of sub-matrices of ~4 GB each in
// binary CSR ("the smallest unit of data transferred"). Four SpMV
// iterations are timed. Larger matrices are built by replicating the
// per-node block across nodes, exactly as the paper does.
#pragma once

#include "sched/policy.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/iterated_spmv.hpp"

namespace dooc::sim {

struct TestbedExperiment {
  int nodes = 1;  ///< must be a perfect square
  int iterations = 4;
  solver::ReductionMode mode = solver::ReductionMode::Simple;
  sched::LocalPolicy policy = sched::LocalPolicy::DataAware;
  // Per-node workload, from §V of the paper.
  std::uint64_t rows_per_node = 50'000'000ull;
  std::uint64_t nnz_per_node = 12'800'000'000ull;
  int blocks_per_node_side = 5;
  std::uint64_t submatrix_bytes = 4'000'000'000ull;
  /// Optional fault-injection schedule replayed under virtual time (see
  /// SimEngine::set_fault_plan for the outage-window caveat).
  std::shared_ptr<fault::FaultPlan> fault_plan;

  [[nodiscard]] double matrix_terabytes() const {
    const double per_node = static_cast<double>(blocks_per_node_side) * blocks_per_node_side *
                            static_cast<double>(submatrix_bytes);
    return per_node * nodes / 1e12;
  }
  [[nodiscard]] double total_nnz() const {
    return static_cast<double>(nnz_per_node) * nodes;
  }
  [[nodiscard]] std::uint64_t matrix_dimension() const;
};

struct TestbedResult {
  TestbedExperiment experiment;
  SimMetrics metrics;

  [[nodiscard]] double time_seconds() const { return metrics.makespan; }
  [[nodiscard]] double gflops() const { return metrics.gflops(); }
  [[nodiscard]] double read_bandwidth() const { return metrics.read_bandwidth(); }
  [[nodiscard]] double non_overlapped() const { return metrics.non_overlapped_fraction(); }
  [[nodiscard]] double cpu_hours_per_iteration() const {
    return metrics.cpu_hours_total() / experiment.iterations;
  }
  /// Minimum time to pull the matrix `iterations` times at peak bandwidth —
  /// the denominator of Fig. 6.
  [[nodiscard]] double optimal_io_seconds(double peak_bw = 20e9) const {
    return experiment.matrix_terabytes() * 1e12 * experiment.iterations / peak_bw;
  }
  [[nodiscard]] double relative_to_optimal_io(double peak_bw = 20e9) const {
    return time_seconds() / optimal_io_seconds(peak_bw);
  }
};

/// Run one testbed experiment on the DES backend.
[[nodiscard]] TestbedResult run_testbed(const TestbedExperiment& experiment,
                                        const SimResources& resources = {});

/// Variant of the paper's §V-B "star" run: solve an oversized matrix
/// (9x the per-node block of a `matrix_nodes`-node experiment) on only
/// `compute_nodes` nodes — out-of-core earns its keep here.
[[nodiscard]] TestbedResult run_testbed_oversized(int compute_nodes, int matrix_nodes,
                                                  const TestbedExperiment& base,
                                                  const SimResources& resources = {});

}  // namespace dooc::sim
