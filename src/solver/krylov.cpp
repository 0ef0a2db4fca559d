#include "solver/krylov.hpp"

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "spmv/kernels.hpp"

namespace dooc::solver {

namespace {

spmv::BlockOwner owner_of(const spmv::DeployedMatrix& matrix) {
  // Vector parts live with the diagonal blocks (as in create_distributed_vector).
  return [&matrix](int u, int v) { return matrix.owner_of(u, v); };
}

}  // namespace

void SpmvStepper::step(int j) {
  IteratedSpmvConfig config;
  config.iterations = 1;
  config.first_iteration = j + 1;
  config.mode = mode_;
  config.inter_iteration_sync = false;  // single step; the solver is the barrier
  config.vector_base = base_;
  IteratedSpmv spmv(cluster_, matrix_, config);
  spmv.run(engine_);
  spmv.cleanup_intermediates();  // partials & aggregates; keeps (base, j+1)
}

// ---------------------------------------------------------------------------
// Lanczos
// ---------------------------------------------------------------------------

Lanczos::Lanczos(storage::StorageCluster& cluster, const spmv::DeployedMatrix& matrix,
                 sched::Engine& engine, LanczosOptions options)
    : cluster_(cluster),
      matrix_(matrix),
      engine_(engine),
      options_(std::move(options)),
      vecs_(cluster, matrix.grid, owner_of(matrix)) {
  DOOC_REQUIRE(options_.max_iterations >= 1, "need at least one Lanczos iteration");
  DOOC_REQUIRE(options_.num_eigenvalues >= 1, "need at least one wanted eigenvalue");
}

LanczosResult Lanczos::run() {
  const std::string& base = options_.base;
  const std::uint64_t n = matrix_.grid.n();

  // v_0: random normalized start vector.
  {
    SplitMix64 rng(options_.seed);
    std::vector<double> v0(n);
    for (auto& x : v0) x = rng.next_double() - 0.5;
    spmv::scale(v0, 1.0 / spmv::norm2(v0));
    vecs_.create_from(base, 0, v0);
    if (options_.flush_basis) vecs_.flush(base, 0);
  }

  LanczosResult result;
  auto step = std::make_unique<Step>(*this, 0);
  step->submit();
  for (int j = 0;; ++j) {
    // Build step j+1's graph while step j runs.
    std::unique_ptr<Step> next;
    if (j + 1 < options_.max_iterations) next = std::make_unique<Step>(*this, j + 1);
    const auto [alpha, beta] = step->finish();
    // Step j+1 reads only v_{j+1}, which step j has written: start it
    // before the caller's own work on step j. Should step j turn out to
    // be the last, step j+1 is discarded.
    if (next && beta >= 1e-14) next->submit();
    step->cleanup();
    result.alpha.push_back(alpha);

    // Ritz values and residual bounds from the projected tridiagonal T_j.
    const TridiagEigen eig = tridiag_eigen(result.alpha, result.beta);
    const int wanted = std::min<int>(options_.num_eigenvalues, eig.k);
    result.eigenvalues.assign(eig.values.begin(), eig.values.begin() + wanted);
    result.residuals.clear();
    bool all_converged = eig.k >= options_.num_eigenvalues;
    for (int i = 0; i < wanted; ++i) {
      const double res = std::abs(beta * eig.last_component(i));
      result.residuals.push_back(res);
      if (res > options_.tolerance) all_converged = false;
    }
    result.iterations = j + 1;

    if (all_converged || beta < 1e-14 || !next) {
      result.converged = all_converged || beta < 1e-14;
      if (next) next->discard();
      vecs_.remove(base, j + 1);  // not part of the basis
      break;
    }
    result.beta.push_back(beta);
    if (options_.flush_basis) vecs_.flush(base, j + 1);
    step = std::move(next);
  }
  return result;
}

Lanczos::Step::Step(Lanczos& solver, int j) : solver_(solver), j_(j) {
  const LanczosOptions& options = solver.options_;
  spec_.w_base = options.base + "w";
  spec_.w_index = j + 1;
  spec_.basis_base = options.base;
  spec_.first = options.full_reorthogonalization ? 0 : std::max(0, j - 1);
  spec_.last = j;
  spec_.passes = options.full_reorthogonalization ? 2 : 1;
  spec_.out_index = j + 1;
  spec_.prefix = options.base + "o" + std::to_string(j + 1);
  spec_.group = j + 1;

  IteratedSpmvConfig config;
  config.iterations = 1;
  config.first_iteration = j + 1;
  config.inter_iteration_sync = false;  // single step; the solver is the barrier
  config.vector_base = options.base;
  config.result_base = spec_.w_base;
  config.extend = [this](sched::TaskGraph& graph) {
    for (int u = 0; u < solver_.matrix_.grid.k(); ++u) {
      graph.mark_transient(DistVectorOps::part_name(spec_.w_base, spec_.w_index, u));
    }
    ortho_ = solver_.vecs_.append_orthonormalize(graph, spec_);
  };
  spmv_.emplace(solver.cluster_, solver.matrix_, std::move(config));
}

Lanczos::Step::~Step() {
  if (!job_) return;
  try {
    solver_.engine_.await(*job_);  // unwinding: a submitted job must be awaited
  } catch (...) {
  }
}

void Lanczos::Step::submit() { job_ = solver_.engine_.submit(spmv_->graph()); }

std::pair<double, double> Lanczos::Step::finish() {
  const std::uint32_t job = *job_;
  job_.reset();
  solver_.engine_.await(job);
  // alpha = <w, v_j> summed over the passes; beta = ||w|| after the last.
  const auto at = static_cast<std::size_t>(j_ - spec_.first);
  double alpha = 0.0;
  for (std::size_t p = 0; p < ortho_.coefficients.size(); ++p) {
    const double c = solver_.vecs_.read_values(ortho_.coefficients[p])[at];
    alpha = p == 0 ? c : alpha + c;
  }
  return {alpha, solver_.vecs_.read_values(ortho_.norm)[0]};
}

void Lanczos::Step::cleanup() {
  DistVectorOps& vecs = solver_.vecs_;
  spmv_->cleanup_intermediates();
  vecs.remove(spec_.w_base, spec_.w_index);
  vecs.remove_arrays(ortho_.internal);
  vecs.remove_arrays(ortho_.coefficients);
  vecs.remove_arrays({ortho_.norm});
}

void Lanczos::Step::discard() {
  if (job_) finish();
  cleanup();
  solver_.vecs_.remove(spec_.basis_base, spec_.out_index);
}

std::vector<std::vector<double>> Lanczos::compute_eigenvectors(const LanczosResult& result,
                                                               int count) {
  DOOC_REQUIRE(result.iterations >= 1, "run() must precede compute_eigenvectors()");
  const TridiagEigen eig = tridiag_eigen(result.alpha, result.beta);
  const int wanted = std::min<int>(count, eig.k);
  const std::uint64_t n = matrix_.grid.n();
  std::vector<std::vector<double>> ritz(static_cast<std::size_t>(wanted),
                                        std::vector<double>(n, 0.0));
  // y_i = sum_j V_j * s_{j,i}: stream each basis vector once.
  const int basis = static_cast<int>(result.alpha.size());
  for (int j = 0; j < basis; ++j) {
    const std::vector<double> vj = vecs_.gather(options_.base, j);
    for (int i = 0; i < wanted; ++i) {
      const double s = eig.vectors[static_cast<std::size_t>(j) * eig.k + i];
      double* y = ritz[static_cast<std::size_t>(i)].data();
      for (std::uint64_t e = 0; e < n; ++e) y[e] += s * vj[e];
    }
  }
  return ritz;
}

}  // namespace dooc::solver
