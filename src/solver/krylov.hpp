// Krylov-subspace solvers on top of the out-of-core SpMV machinery.
//
// The paper's motivation is the Lanczos eigensolver inside MFDn (§II): its
// cost is dominated by iterated SpMV plus the orthonormalization of the
// Lanczos basis. The paper's prototype "does not implement the full Lanczos
// algorithm"; this module does — it is the paper's announced next step
// ("developing more linear algebra kernels will lower the bar for the
// application scientists").
//
//  * Lanczos: each Lanczos step is one graph, run as one engine job: the
//    IteratedSpmv single-step tasks computing w = A v_j, then the
//    orthonormalization of w against the stored basis as classical
//    Gram-Schmidt applied twice (CGS2; one pass over {v_{j-1}, v_j} without
//    full reorthogonalization), then ||w|| and v_{j+1} = w / ||w|| written
//    on the parts' home nodes (DistVectorOps::append_orthonormalize). The
//    basis vectors live in DOoC arrays, flushed to scratch files and evicted
//    under memory pressure; they reach the arithmetic only as task inputs,
//    so the engine stages and prefetches them and the reorthogonalization
//    runs out of core on every node's compute slots. The caller reads
//    alpha and beta, submits step j+1 (it reads only v_{j+1}), and while
//    that job runs flushes v_{j+1}, deletes step j's arrays and takes the
//    eigenvalues of the projected tridiagonal system from
//    solver/tridiag.hpp, with the standard |beta_k s_k| residual bound. A
//    step started past convergence is awaited and discarded.
//  * SpmvStepper: one y = A x step per call, for callers that do their own
//    vector work between matvecs (examples/pagerank.cpp).
//
// Every matvec is an IteratedSpmv single-step graph executed by the real
// engine, so the hierarchical scheduler, prefetching, and the storage
// layer's LRU behaviour are exercised exactly as in the paper's runs.
#pragma once

#include <optional>
#include <utility>

#include "sched/engine.hpp"
#include "solver/dist_vector.hpp"
#include "solver/iterated_spmv.hpp"
#include "solver/tridiag.hpp"

namespace dooc::solver {

/// Runs y_{j+1} = A y_j steps over the distributed storage: reads vector
/// (base, j), writes (base, j+1), cleaning up the partial/sync arrays each
/// step. The matrix stays cached across steps per the storage layer's LRU.
class SpmvStepper {
 public:
  SpmvStepper(storage::StorageCluster& cluster, const spmv::DeployedMatrix& matrix,
              sched::Engine& engine, std::string base,
              ReductionMode mode = ReductionMode::Interleaved)
      : cluster_(cluster), matrix_(matrix), engine_(engine), base_(std::move(base)), mode_(mode) {}

  /// Perform step j; afterwards (base, j+1) exists and is sealed.
  void step(int j);

  [[nodiscard]] const std::string& base() const noexcept { return base_; }

 private:
  storage::StorageCluster& cluster_;
  const spmv::DeployedMatrix& matrix_;
  sched::Engine& engine_;
  std::string base_;
  ReductionMode mode_;
};

// ---------------------------------------------------------------------------
// Lanczos
// ---------------------------------------------------------------------------

struct LanczosOptions {
  int max_iterations = 100;
  int num_eigenvalues = 5;  ///< lowest eigenvalues wanted
  double tolerance = 1e-8;  ///< residual bound |beta_k s_k| per eigenpair
  /// Re-orthogonalize w against the whole stored basis every step (MFDn
  /// does; without it Lanczos loses orthogonality and produces ghosts).
  bool full_reorthogonalization = true;
  /// Flush basis vectors to scratch files so they are LRU-evictable.
  bool flush_basis = true;
  std::uint64_t seed = 7;
  std::string base = "lz";  ///< array-name prefix for the basis
};

struct LanczosResult {
  std::vector<double> eigenvalues;  ///< lowest `num_eigenvalues` Ritz values
  std::vector<double> residuals;    ///< matching |beta_k s_k| bounds
  std::vector<double> alpha;        ///< tridiagonal diagonal
  std::vector<double> beta;         ///< tridiagonal off-diagonal
  int iterations = 0;
  bool converged = false;
};

class Lanczos {
 public:
  Lanczos(storage::StorageCluster& cluster, const spmv::DeployedMatrix& matrix,
          sched::Engine& engine, LanczosOptions options);

  LanczosResult run();

  /// Ritz vectors of the lowest eigenpairs from the stored basis
  /// (streams every basis vector once; call after run()).
  [[nodiscard]] std::vector<std::vector<double>> compute_eigenvectors(
      const LanczosResult& result, int count);

 private:
  /// Step j as one engine job: the IteratedSpmv single-step graph
  /// extended with the orthonormalization of w = A v_j, which writes
  /// v_{j+1} = (base, j+1).
  class Step {
   public:
    Step(Lanczos& solver, int j);  ///< builds the graph, creates its arrays
    ~Step();
    Step(const Step&) = delete;
    Step& operator=(const Step&) = delete;

    void submit();
    /// Await the job; return alpha (v_j's coefficient summed over the
    /// passes) and beta = ||w|| after the last pass.
    std::pair<double, double> finish();
    /// Delete every array of the step except v_{j+1}.
    void cleanup();
    /// Await the job if it was submitted, then delete all its arrays.
    void discard();

   private:
    Lanczos& solver_;
    int j_;
    OrthoSpec spec_;
    OrthoArrays ortho_;
    std::optional<IteratedSpmv> spmv_;
    std::optional<std::uint32_t> job_;  ///< submitted, not yet awaited
  };

  storage::StorageCluster& cluster_;
  const spmv::DeployedMatrix& matrix_;
  sched::Engine& engine_;
  LanczosOptions options_;
  DistVectorOps vecs_;
};

}  // namespace dooc::solver
