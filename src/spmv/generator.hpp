// Sparse matrix generators.
//
// UniformGap is the paper's synthetic workload (§V): "submatrices have been
// generated randomly, such that the separation between two consecutive
// nonzero entries on a row is uniformly distributed in the interval [1:2d],
// where d is a parameter. d is chosen to yield a certain number of total
// non-zero elements in a sub-matrix."  Expected gap is (1+2d)/2, so a row
// of C columns carries ~C/((1+2d)/2) non-zeros; choose_gap_parameter()
// inverts that to hit an nnz target.
//
// The banded and Laplacian generators support tests and the Lanczos
// examples (known spectra).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "spmv/csr.hpp"

namespace dooc::spmv {

/// d such that a rows×cols uniform-gap matrix has ~target_nnz non-zeros.
[[nodiscard]] double choose_gap_parameter(std::uint64_t rows, std::uint64_t cols,
                                          std::uint64_t target_nnz);

/// The paper's random matrix: per row, column gaps uniform in [1, 2d].
/// Values are uniform in [-1, 1). Deterministic in `seed`.
[[nodiscard]] CsrMatrix generate_uniform_gap(std::uint64_t rows, std::uint64_t cols, double d,
                                             std::uint64_t seed);

/// Symmetric banded matrix with the given half bandwidth; entry (i,j) is
/// 1/(1+|i-j|) off the diagonal and `diagonal` on it. With a large enough
/// diagonal it is strictly diagonally dominant, hence SPD.
[[nodiscard]] CsrMatrix generate_banded(std::uint64_t n, std::uint64_t half_bandwidth,
                                        double diagonal);

/// Standard 1-D Laplacian (tridiagonal [-1, 2, -1]); eigenvalues are
/// 4 sin^2(k pi / (2(n+1))) — the closed form the Lanczos tests check
/// against.
[[nodiscard]] CsrMatrix generate_laplacian_1d(std::uint64_t n);

/// Skewed workload: per-row population drawn from a Pareto (power-law)
/// distribution with shape `alpha` (> 1) scaled to a mean of
/// `mean_row_nnz`, capped at `cols`. A few rows carry most of the
/// non-zeros — the shape that starves an equal-row thread split and
/// motivates nnz-balanced partitioning. Deterministic in
/// `seed`; column positions follow the same uniform-gap walk as
/// generate_uniform_gap with a per-row gap parameter.
[[nodiscard]] CsrMatrix generate_power_law(std::uint64_t rows, std::uint64_t cols,
                                           double mean_row_nnz, double alpha,
                                           std::uint64_t seed);

/// Restrict a matrix to a sub-block [row0, row0+rows) × [col0, col0+cols)
/// (column indices re-based). Used to cut a global matrix into the paper's
/// K×K grid.
[[nodiscard]] CsrMatrix extract_block(const CsrMatrix& m, std::uint64_t row0, std::uint64_t rows,
                                      std::uint64_t col0, std::uint64_t cols);

}  // namespace dooc::spmv

namespace dooc::spmv {

/// Keep only the lower triangle (diagonal included) of a matrix — the
/// half-storage form consumed by multiply_symmetric_half().
[[nodiscard]] CsrMatrix extract_lower_triangle(const CsrMatrix& m);

/// Symmetrize an arbitrary square matrix: (A + A^T) / 2.
[[nodiscard]] CsrMatrix symmetrize(const CsrMatrix& m);

}  // namespace dooc::spmv
