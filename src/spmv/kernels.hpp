// Dense vector kernels used by the iterative solvers, plus the threaded
// SpMV entry points task bodies call with the node's split pool.
//
// Every hot loop here is parallel (above a work threshold), vectorizable
// (restrict-qualified pointer loops with independent accumulators) and
// load-balanced (nnz-balanced row partitioning — see partition.hpp).
// Per-kernel GFLOP/s and partition-imbalance gauges are published through
// dooc::obs under kernel.*.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "common/thread_pool.hpp"
#include "spmv/csr.hpp"

namespace dooc::spmv {

struct KernelConfig {
  /// Below this many non-zeros a multiply runs serial regardless of the
  /// pool: the split overhead exceeds the work. Gates on nnz (work), not
  /// rows — a short fat matrix still parallelizes.
  std::uint64_t serial_nnz_threshold = 1u << 15;
};

/// y = A x, rows split across the pool in nnz-balanced ranges ("the local
/// scheduler decomposes the tasks to expose more parallelism", realized as
/// row-range splitting). Runs serial when the pool is trivial or the matrix
/// carries fewer than config.serial_nnz_threshold non-zeros (work gate, not
/// a row gate). Row-partitioned execution preserves the serial per-row
/// summation order, so results are bitwise equal to the serial kernel.
void multiply_parallel(const CsrView& a, std::span<const double> x, std::span<double> y,
                       ThreadPool& pool, const KernelConfig& config = {});

/// out[i] = sum_k parts[k][i] — the reduction combining partial SpMV
/// results; parts must all have out.size() elements.
void sum_vectors(std::span<const std::span<const double>> parts, std::span<double> out);
/// Pool variant: index range split across workers above the BLAS-1
/// threshold. Summation order over parts is unchanged, so results are
/// bitwise equal to the serial reduction.
void sum_vectors(std::span<const std::span<const double>> parts, std::span<double> out,
                 ThreadPool& pool);

// BLAS-1 helpers. Serial forms are restrict-qualified multi-accumulator
// loops (vectorizable); pool overloads split the index range when the
// vector is at least kBlas1ParallelThreshold long. Reductions (dot/norm2)
// accumulate in a fixed lane/chunk order, so results are deterministic for
// a given length and pool size but may differ from the serial sum by
// normal floating-point reassociation (documented tolerance: a few ulp).
constexpr std::size_t kBlas1ParallelThreshold = std::size_t{1} << 15;

double dot(std::span<const double> a, std::span<const double> b);
double dot(std::span<const double> a, std::span<const double> b, ThreadPool& pool);
double norm2(std::span<const double> a);
double norm2(std::span<const double> a, ThreadPool& pool);
void axpy(double alpha, std::span<const double> x, std::span<double> y);  // y += alpha x
void axpy(double alpha, std::span<const double> x, std::span<double> y, ThreadPool& pool);
void scale(std::span<double> x, double alpha);  // x *= alpha
void copy(std::span<const double> src, std::span<double> dst);

}  // namespace dooc::spmv

namespace dooc::spmv {

/// y = A x for a symmetric matrix of which only the lower triangle
/// (diagonal included) is stored — MFDn's half-storage scheme (§II: the
/// Hamiltonian is symmetric, so the in-core code keeps ~half the bytes,
/// which is where Table I's ~8.5 bytes/non-zero comes from). Each stored
/// off-diagonal entry (i, j) contributes to both y_i and y_j; the scatter
/// to y_j makes this serial reference kernel single-threaded per output.
void multiply_symmetric_half(const CsrView& lower, std::span<const double> x,
                             std::span<double> y);

/// Parallel symmetric-half multiply: workers own nnz-balanced row ranges
/// and scatter into thread-private partial y vectors, which a parallel
/// index-sliced reduction then combines. Deterministic for a fixed matrix
/// and pool size (partials are summed in partition order);
/// differs from the serial kernel only by floating-point reassociation.
void multiply_symmetric_half_parallel(const CsrView& lower, std::span<const double> x,
                                      std::span<double> y, ThreadPool& pool,
                                      const KernelConfig& config = {});

}  // namespace dooc::spmv
