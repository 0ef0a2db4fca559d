// The paper's use case (§IV): iterated sparse matrix-vector multiplication
// y = A x over a K×K block grid, expressed as a DAG of multiply / sum tasks
// for the DOoC scheduler.
//
// Per iteration i (Fig. 3): K² multiplies  x^i_{u,v} = A_{u,v} * x^{i-1}_v
// followed by K reductions  x^i_u = Σ_v x^i_{u,v}.
//
// Row u is reduced, and x_u homed, on the node that reads x_u next: when
// one node owns every block of column u (column strips, Fig. 5), that node
// is the only reader of x_u in the next multiply and also x_u's home for
// the solver's vector tasks, so the sum runs there and nothing moves x_u
// again. Otherwise (row strips, square tiles) the row is reduced on the
// paper's "first processor of the row", the node hosting A_{u,0}; the
// testbed runs (Tables III/IV, square tiles) and Fig. 5's row strips keep
// that placement. Either way the sum adds its inputs in the same order, so
// the answer does not depend on where it runs.
//
// Two strategies reproduce the paper's two experiments:
//  * Simple (Table III): partials go straight to the row's reducer, with a
//    global synchronization after the SpMV phase and another after the
//    reduction phase.
//  * Interleaved (Table IV): the post-SpMV synchronization is removed (so
//    reductions interleave with multiplies), and each node first aggregates
//    its own partials for a row before communicating ("the reduction is
//    first performed locally by each node").
// An optional inter-iteration synchronization models the reorthogonalization
// barrier of a real Lanczos iteration; switching it off reproduces the
// fully-asynchronous Gantt chart of Fig. 5(b).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "sched/engine.hpp"
#include "solver/array_creator.hpp"
#include "spmv/block_grid.hpp"

namespace dooc::solver {

enum class ReductionMode {
  Simple,       ///< Table III: direct reduction + post-SpMV global sync
  Interleaved,  ///< Table IV: local aggregation, no post-SpMV sync
};

struct IteratedSpmvConfig {
  int iterations = 2;
  ReductionMode mode = ReductionMode::Interleaved;
  /// Barrier between iterations (the Lanczos reorthogonalization point).
  bool inter_iteration_sync = true;
  /// Base name of the distributed vector; iteration `first_iteration - 1`
  /// parts (vector_name(base, first_iteration - 1, u)) must exist before
  /// run().
  std::string vector_base = "x";
  /// Index of the first iteration this graph performs (defaults to 1, i.e.
  /// the input is iteration 0). Lets solvers chain single-step graphs:
  /// Lanczos step j runs {first_iteration = j+1, iterations = 1}.
  int first_iteration = 1;
  /// Base name of the iterates this graph writes (empty = vector_base).
  /// Lanczos writes w = A v_j here, apart from the basis vector
  /// (vector_base, j+1) that its orthonormalization derives from w.
  std::string result_base;
  /// Runs after the SpMV tasks are emitted and their intermediates marked
  /// transient, just before TaskGraph::build(): a solver appends its own
  /// tasks so they run in the same job as the SpMV (Lanczos appends the
  /// step's orthonormalization).
  std::function<void(sched::TaskGraph&)> extend;
};

class IteratedSpmv {
 public:
  /// Builds the task graph against the real storage layer. The initial
  /// vector arrays must already exist; intermediate and result arrays are
  /// created here.
  IteratedSpmv(storage::StorageCluster& cluster, const spmv::DeployedMatrix& matrix,
               IteratedSpmvConfig config);

  /// Graph-only variant: arrays are created through `creator` (e.g. a
  /// VirtualArrayCreator for the testbed simulator). gather_result() and
  /// cleanup_intermediates() are unavailable in this mode.
  IteratedSpmv(ArrayCreator& creator, const spmv::DeployedMatrix& matrix,
               IteratedSpmvConfig config);

  [[nodiscard]] sched::TaskGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const IteratedSpmvConfig& config() const noexcept { return config_; }

  /// Execute on the real backend and return the engine report.
  sched::Report run(sched::Engine& engine) { return engine.run(graph_); }

  /// Result vector of the final iteration, gathered to the caller.
  [[nodiscard]] std::vector<double> gather_result();

  /// Delete every intermediate array this driver created (partials,
  /// aggregates, sync tokens and non-final iterates). The graph marks the
  /// same set transient, so the engine may already have freed their
  /// blocks; this also removes the catalog entries.
  void cleanup_intermediates();

  /// The emitted command list, Fig. 3 style ("x_{0,0}^1 = A_{0,0} * x_0^0").
  [[nodiscard]] std::string command_list() const;
  /// The derived dependencies, Fig. 4 style ("x_0^1 <- x_{0,0}^1 (A_{0,0})").
  [[nodiscard]] std::string dependency_list() const;

  /// Total floating-point work of one iteration (2 flops per non-zero plus
  /// the reduction adds).
  [[nodiscard]] double flops_per_iteration() const noexcept { return flops_per_iteration_; }

 private:
  void build();
  [[nodiscard]] const std::string& result_base() const noexcept {
    return config_.result_base.empty() ? config_.vector_base : config_.result_base;
  }
  void create_vector_array(const std::string& name, int home_node, std::uint64_t bytes);
  [[nodiscard]] bool is_final_iterate(const std::string& name) const;

  storage::StorageCluster* cluster_ = nullptr;  ///< null in graph-only mode
  std::unique_ptr<StorageArrayCreator> owned_creator_;
  ArrayCreator* creator_ = nullptr;
  const spmv::DeployedMatrix& matrix_;
  IteratedSpmvConfig config_;
  sched::TaskGraph graph_;
  std::vector<std::string> created_arrays_;
  double flops_per_iteration_ = 0.0;
};

}  // namespace dooc::solver
