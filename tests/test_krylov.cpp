// Solver tests: tridiagonal eigensolver against closed forms, then the full
// out-of-core Lanczos driver against dense references on the real
// backend.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "solver/krylov.hpp"
#include "spmv/kernels.hpp"
#include "spmv/generator.hpp"
#include "test_util.hpp"

namespace dooc::solver {
namespace {

// ---------------------------------------------------------------------------
// Tridiagonal eigensolver
// ---------------------------------------------------------------------------

TEST(Tridiag, LaplacianEigenvaluesMatchClosedForm) {
  // T = tridiag(-1, 2, -1) of size n: lambda_k = 2 - 2 cos(k pi / (n+1)).
  const int n = 25;
  std::vector<double> alpha(n, 2.0), beta(n - 1, -1.0);
  const auto values = tridiag_eigenvalues(alpha, beta);
  for (int k = 1; k <= n; ++k) {
    const double expect = 2.0 - 2.0 * std::cos(k * M_PI / (n + 1));
    EXPECT_NEAR(values[static_cast<std::size_t>(k - 1)], expect, 1e-10);
  }
}

TEST(Tridiag, DiagonalMatrixIsItsOwnSpectrum) {
  std::vector<double> alpha{3.0, -1.0, 7.0, 2.0};
  std::vector<double> beta{0.0, 0.0, 0.0};
  const auto values = tridiag_eigenvalues(alpha, beta);
  EXPECT_EQ(values, (std::vector<double>{-1.0, 2.0, 3.0, 7.0}));
}

TEST(Tridiag, EigenvectorsSatisfyDefinition) {
  std::vector<double> alpha{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> beta{0.5, 0.6, 0.7, 0.8};
  const auto eig = tridiag_eigen(alpha, beta);
  const int n = eig.k;
  for (int j = 0; j < n; ++j) {
    // Check T z = lambda z component-wise.
    for (int i = 0; i < n; ++i) {
      double tz = alpha[static_cast<std::size_t>(i)] * eig.vectors[static_cast<std::size_t>(i) * n + j];
      if (i > 0) tz += beta[static_cast<std::size_t>(i) - 1] * eig.vectors[static_cast<std::size_t>(i - 1) * n + j];
      if (i + 1 < n) tz += beta[static_cast<std::size_t>(i)] * eig.vectors[static_cast<std::size_t>(i + 1) * n + j];
      EXPECT_NEAR(tz, eig.values[static_cast<std::size_t>(j)] * eig.vectors[static_cast<std::size_t>(i) * n + j], 1e-10);
    }
  }
}

TEST(Tridiag, EigenvectorsAreOrthonormal) {
  std::vector<double> alpha{2.0, 2.0, 2.0, 2.0};
  std::vector<double> beta{-1.0, -1.0, -1.0};
  const auto eig = tridiag_eigen(alpha, beta);
  const int n = eig.k;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      double d = 0.0;
      for (int i = 0; i < n; ++i) {
        d += eig.vectors[static_cast<std::size_t>(i) * n + a] *
             eig.vectors[static_cast<std::size_t>(i) * n + b];
      }
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Tridiag, SizeMismatchThrows) {
  EXPECT_THROW(tridiag_eigenvalues({1.0, 2.0}, {}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Out-of-core solvers (full stack)
// ---------------------------------------------------------------------------

struct Stack {
  testutil::TempDir dir{"krylov"};
  storage::StorageCluster cluster;
  sched::Engine engine;

  explicit Stack(int nodes, std::uint64_t memory_budget = 64ull << 20,
                 sched::EngineConfig engine_config = {})
      : cluster(nodes,
                [&] {
                  storage::StorageConfig cfg;
                  cfg.scratch_root = dir.str();
                  cfg.memory_budget = memory_budget;
                  return cfg;
                }()),
        engine(cluster, engine_config) {}
};

spmv::BlockOwner owner_of(const spmv::DeployedMatrix& matrix) {
  return [&matrix](int u, int v) { return matrix.owner_of(u, v); };
}

std::vector<double> dense_eigenvalues(const spmv::CsrMatrix& m) {
  // Jacobi eigenvalue iteration for small symmetric matrices.
  const int n = static_cast<int>(m.rows);
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (std::uint64_t k = m.row_ptr[static_cast<std::size_t>(i)];
         k < m.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      a[static_cast<std::size_t>(i) * n + m.col_idx[k]] = m.values[k];
    }
  }
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += std::abs(a[static_cast<std::size_t>(p) * n + q]);
    }
    if (off < 1e-12) break;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a[static_cast<std::size_t>(p) * n + q];
        if (std::abs(apq) < 1e-14) continue;
        const double theta =
            0.5 * std::atan2(2.0 * apq, a[static_cast<std::size_t>(q) * n + q] -
                                            a[static_cast<std::size_t>(p) * n + p]);
        const double c = std::cos(theta), s = std::sin(theta);
        for (int i = 0; i < n; ++i) {
          const double aip = a[static_cast<std::size_t>(i) * n + p];
          const double aiq = a[static_cast<std::size_t>(i) * n + q];
          a[static_cast<std::size_t>(i) * n + p] = c * aip - s * aiq;
          a[static_cast<std::size_t>(i) * n + q] = s * aip + c * aiq;
        }
        for (int i = 0; i < n; ++i) {
          const double api = a[static_cast<std::size_t>(p) * n + i];
          const double aqi = a[static_cast<std::size_t>(q) * n + i];
          a[static_cast<std::size_t>(p) * n + i] = c * api - s * aqi;
          a[static_cast<std::size_t>(q) * n + i] = s * api + c * aqi;
        }
      }
    }
  }
  std::vector<double> values(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i) * n + i];
  std::sort(values.begin(), values.end());
  return values;
}

TEST(Lanczos, LaplacianLowestEigenvaluesMatchClosedForm) {
  Stack stack(1);
  const std::uint64_t n = 60;
  const auto m = spmv::generate_laplacian_1d(n);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 3, spmv::column_strip_owner(1));

  LanczosOptions opts;
  opts.max_iterations = 60;
  opts.num_eigenvalues = 3;
  opts.tolerance = 1e-9;
  Lanczos lanczos(stack.cluster, deployed, stack.engine, opts);
  const auto result = lanczos.run();

  ASSERT_GE(result.eigenvalues.size(), 3u);
  for (int k = 1; k <= 3; ++k) {
    const double expect = 4.0 * std::pow(std::sin(k * M_PI / (2.0 * (n + 1))), 2);
    EXPECT_NEAR(result.eigenvalues[static_cast<std::size_t>(k - 1)], expect, 1e-7) << "k=" << k;
  }
}

TEST(Lanczos, MultiNodeMatchesDenseJacobi) {
  Stack stack(2);
  auto m = spmv::generate_banded(48, 4, 6.0);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 4, spmv::column_strip_owner(2));

  LanczosOptions opts;
  opts.max_iterations = 48;
  opts.num_eigenvalues = 4;
  opts.tolerance = 1e-9;
  Lanczos lanczos(stack.cluster, deployed, stack.engine, opts);
  const auto result = lanczos.run();

  const auto dense = dense_eigenvalues(m);
  ASSERT_GE(result.eigenvalues.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.eigenvalues[static_cast<std::size_t>(i)], dense[static_cast<std::size_t>(i)], 1e-6);
  }
}

TEST(Lanczos, TinyMemoryBudgetStillConverges) {
  // Force the basis and matrix blocks out of core: budget of 4 KiB per
  // node, everything streams through scratch files.
  Stack stack(1, /*memory_budget=*/4 << 10);
  const auto m = spmv::generate_laplacian_1d(40);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 2, spmv::column_strip_owner(1));

  LanczosOptions opts;
  opts.max_iterations = 40;
  opts.num_eigenvalues = 2;
  opts.tolerance = 1e-8;
  Lanczos lanczos(stack.cluster, deployed, stack.engine, opts);
  const auto result = lanczos.run();
  const double e1 = 4.0 * std::pow(std::sin(M_PI / 82.0), 2);
  EXPECT_NEAR(result.eigenvalues[0], e1, 1e-6);
  // Out-of-core actually happened: blocks were evicted under the budget.
  EXPECT_GT(stack.cluster.node(0).stats().evictions, 0u);
}

TEST(Lanczos, ResidualsShrinkWithIterations) {
  Stack stack(1);
  const auto m = spmv::generate_laplacian_1d(50);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 2, spmv::column_strip_owner(1));

  LanczosOptions few;
  few.max_iterations = 8;
  few.num_eigenvalues = 1;
  few.tolerance = 1e-14;  // force max iterations
  few.base = "lza";
  const auto r_few = Lanczos(stack.cluster, deployed, stack.engine, few).run();

  LanczosOptions many = few;
  many.max_iterations = 30;
  many.base = "lzb";
  const auto r_many = Lanczos(stack.cluster, deployed, stack.engine, many).run();
  EXPECT_LT(r_many.residuals[0], r_few.residuals[0]);
}

TEST(Lanczos, EigenvectorsHaveSmallResidual) {
  Stack stack(1);
  const auto m = spmv::generate_laplacian_1d(36);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 2, spmv::column_strip_owner(1));
  LanczosOptions opts;
  opts.max_iterations = 36;
  opts.num_eigenvalues = 2;
  Lanczos lanczos(stack.cluster, deployed, stack.engine, opts);
  const auto result = lanczos.run();
  const auto vectors = lanczos.compute_eigenvectors(result, 2);
  ASSERT_EQ(vectors.size(), 2u);
  for (int j = 0; j < 2; ++j) {
    std::vector<double> av(36);
    m.multiply(vectors[static_cast<std::size_t>(j)], av);
    double res = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < 36; ++i) {
      const double r = av[i] - result.eigenvalues[static_cast<std::size_t>(j)] * vectors[static_cast<std::size_t>(j)][i];
      res += r * r;
      norm += vectors[static_cast<std::size_t>(j)][i] * vectors[static_cast<std::size_t>(j)][i];
    }
    EXPECT_LT(std::sqrt(res), 1e-5);
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Lanczos steps as dataflow jobs: determinism and orthogonality
// ---------------------------------------------------------------------------

struct EvictingRun {
  LanczosResult result;
  std::vector<std::vector<double>> basis;  ///< v_0 .. v_{iterations-1}
  std::uint64_t evictions = 0;
};

/// 40 Lanczos steps on 2 nodes under a 16 KiB budget: the matrix (~26 KB)
/// and the basis stream through scratch files, and the 400-byte parts make
/// 10-vector panels, so the later steps orthogonalize over 4 panels.
EvictingRun run_evicting(sched::EngineConfig engine_config) {
  Stack stack(2, 16 << 10, engine_config);
  const auto m = spmv::generate_banded(200, 5, 7.0);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 4, spmv::column_strip_owner(2));
  LanczosOptions opts;
  opts.max_iterations = 40;
  opts.num_eigenvalues = 4;
  opts.tolerance = 0.0;  // fixes the step count
  EvictingRun run;
  run.result = Lanczos(stack.cluster, deployed, stack.engine, opts).run();
  DistVectorOps vecs(stack.cluster, deployed.grid, owner_of(deployed));
  for (int j = 0; j < run.result.iterations; ++j) run.basis.push_back(vecs.gather(opts.base, j));
  run.evictions = stack.cluster.total_stats().evictions;
  return run;
}

TEST(Lanczos, RitzValuesBitwiseEqualAcrossSchedules) {
  const EvictingRun reference = run_evicting({});
  ASSERT_EQ(reference.result.iterations, 40);
  EXPECT_GT(reference.evictions, 0u) << "the budget must force the basis out of core";

  sched::EngineConfig two_slots;
  two_slots.compute_slots_per_node = 2;
  sched::EngineConfig no_prefetch;
  no_prefetch.prefetch_window = 0;
  sched::EngineConfig prefetch_two;
  prefetch_two.prefetch_window = 2;
  for (const auto& config : {sched::EngineConfig{}, two_slots, no_prefetch, prefetch_two}) {
    const EvictingRun run = run_evicting(config);
    // EXPECT_EQ on double vectors compares bits, not tolerances.
    EXPECT_EQ(run.result.eigenvalues, reference.result.eigenvalues)
        << "slots=" << config.compute_slots_per_node << " window=" << config.prefetch_window;
    EXPECT_EQ(run.result.alpha, reference.result.alpha);
    EXPECT_EQ(run.result.beta, reference.result.beta);
  }
}

TEST(Lanczos, Cgs2KeepsTheBasisOrthonormal) {
  const EvictingRun run = run_evicting({});
  ASSERT_EQ(run.basis.size(), 40u);
  double worst = 0.0;
  for (std::size_t a = 0; a < run.basis.size(); ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      const double d = spmv::dot(run.basis[a], run.basis[b]);
      worst = std::max(worst, std::abs(d - (a == b ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(worst, 1e-12);
}

TEST(Lanczos, WithoutReorthogonalizationMatchesLaplacianClosedForm) {
  Stack stack(2);
  const std::uint64_t n = 60;
  const auto m = spmv::generate_laplacian_1d(n);
  const auto deployed = spmv::deploy_matrix(stack.cluster, m, 3, spmv::column_strip_owner(2));

  LanczosOptions opts;
  opts.max_iterations = 60;
  opts.num_eigenvalues = 2;
  opts.tolerance = 1e-9;
  opts.full_reorthogonalization = false;
  const auto result = Lanczos(stack.cluster, deployed, stack.engine, opts).run();

  ASSERT_GE(result.eigenvalues.size(), 2u);
  for (int k = 1; k <= 2; ++k) {
    const double expect = 4.0 * std::pow(std::sin(k * M_PI / (2.0 * (n + 1))), 2);
    EXPECT_NEAR(result.eigenvalues[static_cast<std::size_t>(k - 1)], expect, 1e-7) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// The CGS2 task graph against a dense reference
// ---------------------------------------------------------------------------

struct DenseOrtho {
  std::vector<std::vector<double>> coefficients;  ///< per pass
  double norm = 0.0;
  std::vector<double> v;
};

/// CGS2 with the task graph's summation order: per-part partial dots
/// added over the parts u = 0..K-1, and w updated one basis vector at a
/// time in ascending order.
DenseOrtho dense_orthonormalize(const spmv::BlockGrid& grid, std::vector<double> w,
                                const std::vector<std::vector<double>>& basis, int passes) {
  const auto part_sum = [&grid](int u, const auto& term) {
    double s = 0.0;
    for (std::uint64_t x = grid.part_begin(u); x < grid.part_begin(u) + grid.part_size(u); ++x) {
      s += term(x);
    }
    return s;
  };
  DenseOrtho out;
  for (int p = 0; p < passes; ++p) {
    std::vector<double> c(basis.size(), 0.0);
    for (std::size_t i = 0; i < basis.size(); ++i) {
      for (int u = 0; u < grid.k(); ++u) {
        c[i] += part_sum(u, [&](std::uint64_t x) { return w[x] * basis[i][x]; });
      }
    }
    for (std::size_t x = 0; x < w.size(); ++x) {
      for (std::size_t i = 0; i < basis.size(); ++i) w[x] -= c[i] * basis[i][x];
    }
    out.coefficients.push_back(c);
  }
  double squares = 0.0;
  for (int u = 0; u < grid.k(); ++u) {
    squares += part_sum(u, [&](std::uint64_t x) { return w[x] * w[x]; });
  }
  out.norm = std::sqrt(squares);
  const double inv = 1.0 / out.norm;
  for (double& x : w) x *= inv;
  out.v = std::move(w);
  return out;
}

struct TaskOrtho {
  DenseOrtho values;
  int panel_width = 0;
  std::uint64_t internal_resident = 0;
};

/// Orthonormalize (cw, 0) against basis vectors (cb, 1..9) with the task
/// graph alone, on 2 nodes with the given memory budget.
TaskOrtho task_orthonormalize(const spmv::BlockGrid& grid, const std::vector<double>& w,
                              const std::vector<std::vector<double>>& basis,
                              std::uint64_t memory_budget) {
  Stack stack(2, memory_budget);
  DistVectorOps vecs(stack.cluster, grid, spmv::column_strip_owner(2));
  vecs.create_from("cw", 0, w);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    vecs.create_from("cb", static_cast<int>(i) + 1, basis[i]);
    vecs.flush("cb", static_cast<int>(i) + 1);
  }
  OrthoSpec spec;
  spec.w_base = "cw";
  spec.basis_base = "cb";
  spec.first = 1;
  spec.last = static_cast<int>(basis.size());
  spec.out_index = spec.last + 1;
  spec.prefix = "co";
  sched::TaskGraph graph;
  const OrthoArrays arrays = vecs.append_orthonormalize(graph, spec);
  graph.build();
  stack.engine.run(graph);

  TaskOrtho out;
  out.panel_width = arrays.panel_width;
  for (const auto& name : arrays.coefficients) out.values.coefficients.push_back(vecs.read_values(name));
  out.values.norm = vecs.read_values(arrays.norm)[0];
  out.values.v = vecs.gather("cb", spec.out_index);
  out.internal_resident = testutil::resident_bytes_of(stack.cluster, arrays.internal);
  return out;
}

TEST(Cgs2Tasks, BitwiseEqualToDenseReferenceForAnyPanelWidth) {
  const spmv::BlockGrid grid(90, 3);  // 30-element (240-byte) parts
  SplitMix64 rng(5);
  const auto random_vector = [&] {
    std::vector<double> v(grid.n());
    for (double& x : v) x = rng.next_double() - 0.5;
    return v;
  };
  const std::vector<double> w = random_vector();
  std::vector<std::vector<double>> basis;
  for (int i = 0; i < 9; ++i) basis.push_back(random_vector());
  const DenseOrtho expect = dense_orthonormalize(grid, w, basis, 2);

  // One panel under 1 MiB; 2-vector panels (a quarter of 1920 bytes holds
  // two parts) under the small budget, which also forces eviction.
  const TaskOrtho wide = task_orthonormalize(grid, w, basis, 1 << 20);
  const TaskOrtho narrow = task_orthonormalize(grid, w, basis, 1920);
  EXPECT_EQ(wide.panel_width, 9);
  EXPECT_EQ(narrow.panel_width, 2);
  for (const TaskOrtho* run : {&wide, &narrow}) {
    EXPECT_EQ(run->values.coefficients, expect.coefficients) << "width " << run->panel_width;
    EXPECT_EQ(run->values.norm, expect.norm) << "width " << run->panel_width;
    EXPECT_EQ(run->values.v, expect.v) << "width " << run->panel_width;
    EXPECT_EQ(run->internal_resident, 0u) << "internal arrays must be freed by their last reader";
  }
}

}  // namespace
}  // namespace dooc::solver
