#include "spmv/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <future>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "spmv/partition.hpp"

namespace dooc::spmv {

namespace {

/// nnz-balanced split of a CSR row_ptr; empty ranges (a fat row took a
/// whole share) are dropped.
template <typename RowPtr>
std::vector<RowRange> split_rows(std::span<const RowPtr> row_ptr, std::size_t parts) {
  auto ranges = balanced_row_ranges(row_ptr, parts);
  std::erase_if(ranges, [](const RowRange& r) { return r.begin >= r.end; });
  if (ranges.empty()) ranges.push_back({0, row_ptr.size() - 1});
  return ranges;
}

/// Run `body(range)` for every range on the pool and wait.
template <typename Body>
void run_ranges(ThreadPool& pool, const std::vector<RowRange>& ranges, const Body& body) {
  if (ranges.size() == 1) {
    body(ranges[0]);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(ranges.size());
  for (const RowRange& r : ranges) {
    futures.push_back(pool.submit([&body, r] { body(r); }));
  }
  for (auto& f : futures) f.get();
}

/// Run `body(slice_index, begin, end)` over [0, n) split into `parts`
/// equal slices (parallel_for with a stable slice id for partial buffers).
template <typename Body>
void run_slices(ThreadPool& pool, std::size_t n, std::size_t parts, const Body& body) {
  const std::size_t per = (n + parts - 1) / parts;
  std::vector<std::future<void>> futures;
  std::size_t idx = 0;
  for (std::size_t begin = 0; begin < n; begin += per, ++idx) {
    const std::size_t end = std::min(n, begin + per);
    futures.push_back(pool.submit([&body, idx, begin, end] { body(idx, begin, end); }));
  }
  for (auto& f : futures) f.get();
}

struct KernelGauges {
  obs::Gauge& gflops;
  obs::Gauge& imbalance;
  obs::Counter& calls;

  static KernelGauges make(const char* kernel) {
    auto& m = obs::Metrics::instance();
    const std::string base = std::string("kernel.") + kernel;
    return {m.gauge(base + ".gflops"), m.gauge(base + ".imbalance"), m.counter(base + ".calls")};
  }

  /// flops / elapsed ns happens to be GFLOP/s exactly.
  void record(double flops, std::uint64_t start_ns, double imbalance_factor) {
    const std::uint64_t end_ns = obs::TraceClock::now_ns();
    if (end_ns > start_ns) gflops.set(flops / static_cast<double>(end_ns - start_ns));
    imbalance.set(imbalance_factor);
    calls.add();
  }
};

KernelGauges& csr_gauges() {
  static KernelGauges g = KernelGauges::make("spmv.csr");
  return g;
}
KernelGauges& symv_gauges() {
  static KernelGauges g = KernelGauges::make("spmv.symhalf");
  return g;
}

}  // namespace

void multiply_parallel(const CsrView& a, std::span<const double> x, std::span<double> y,
                       ThreadPool& pool, const KernelConfig& config) {
  auto& gauges = csr_gauges();
  const std::uint64_t t0 = obs::TraceClock::now_ns();
  if (pool.size() <= 1 || a.nnz() < config.serial_nnz_threshold) {
    a.multiply(x, y);
    gauges.record(2.0 * static_cast<double>(a.nnz()), t0, 1.0);
    return;
  }
  std::vector<RowRange> ranges;
  double imbalance = 1.0;
  a.visit([&](auto row_ptr, auto) {
    ranges = split_rows(row_ptr, pool.size());
    imbalance = partition_imbalance(row_ptr, ranges);
  });
  run_ranges(pool, ranges,
             [&](const RowRange& r) { a.multiply_rows(x, y, r.begin, r.end); });
  gauges.record(2.0 * static_cast<double>(a.nnz()), t0, imbalance);
}

namespace {

/// out[b:e] += part[b:e] (the restrict-qualified inner loop of both
/// sum_vectors forms).
inline void add_slice(std::span<const double> part, std::span<double> out, std::size_t begin,
                      std::size_t end) {
  const double* __restrict src = part.data();
  double* __restrict dst = out.data();
  for (std::size_t i = begin; i < end; ++i) dst[i] += src[i];
}

}  // namespace

void sum_vectors(std::span<const std::span<const double>> parts, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (const auto& part : parts) {
    DOOC_REQUIRE(part.size() == out.size(), "partial vector size mismatch in reduction");
    add_slice(part, out, 0, out.size());
  }
}

void sum_vectors(std::span<const std::span<const double>> parts, std::span<double> out,
                 ThreadPool& pool) {
  if (pool.size() <= 1 || out.size() < kBlas1ParallelThreshold) {
    sum_vectors(parts, out);
    return;
  }
  for (const auto& part : parts) {
    DOOC_REQUIRE(part.size() == out.size(), "partial vector size mismatch in reduction");
  }
  pool.parallel_ranges(out.size(), [&](std::size_t begin, std::size_t end) {
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(begin),
              out.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
    for (const auto& part : parts) add_slice(part, out, begin, end);
  });
}

double dot(std::span<const double> a, std::span<const double> b) {
  DOOC_REQUIRE(a.size() == b.size(), "dot size mismatch");
  const double* __restrict pa = a.data();
  const double* __restrict pb = b.data();
  const std::size_t n = a.size();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += pa[i] * pb[i];
    s1 += pa[i + 1] * pb[i + 1];
    s2 += pa[i + 2] * pb[i + 2];
    s3 += pa[i + 3] * pb[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += pa[i] * pb[i];
  return ((s0 + s2) + (s1 + s3)) + tail;
}

double dot(std::span<const double> a, std::span<const double> b, ThreadPool& pool) {
  DOOC_REQUIRE(a.size() == b.size(), "dot size mismatch");
  if (pool.size() <= 1 || a.size() < kBlas1ParallelThreshold) return dot(a, b);
  const std::size_t parts = pool.size();
  std::vector<double> partial(parts, 0.0);
  run_slices(pool, a.size(), parts, [&](std::size_t p, std::size_t begin, std::size_t end) {
    partial[p] = dot(a.subspan(begin, end - begin), b.subspan(begin, end - begin));
  });
  double acc = 0.0;
  for (double v : partial) acc += v;  // fixed slice order: deterministic
  return acc;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm2(std::span<const double> a, ThreadPool& pool) { return std::sqrt(dot(a, a, pool)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  DOOC_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  const double* __restrict px = x.data();
  double* __restrict py = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void axpy(double alpha, std::span<const double> x, std::span<double> y, ThreadPool& pool) {
  DOOC_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  if (pool.size() <= 1 || x.size() < kBlas1ParallelThreshold) {
    axpy(alpha, x, y);
    return;
  }
  pool.parallel_ranges(x.size(), [&](std::size_t begin, std::size_t end) {
    axpy(alpha, x.subspan(begin, end - begin), y.subspan(begin, end - begin));
  });
}

void scale(std::span<double> x, double alpha) {
  double* __restrict px = x.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) px[i] *= alpha;
}

void copy(std::span<const double> src, std::span<double> dst) {
  DOOC_REQUIRE(src.size() == dst.size(), "copy size mismatch");
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size() * sizeof(double));
}

}  // namespace dooc::spmv

namespace dooc::spmv {

namespace {

/// Rows [begin, end) of a lower-triangle half: y_r gains the row dot and
/// every off-diagonal entry scatters its mirrored (c, r) term into y_c.
template <typename RP, typename CI>
void symmetric_half_rows(std::span<const RP> rp, std::span<const CI> ci,
                         std::span<const double> va, const double* __restrict xv,
                         double* __restrict y, std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t r = begin; r < end; ++r) {
    double acc = 0.0;
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::uint64_t c = ci[k];
      DOOC_REQUIRE(c <= r, "half-stored matrix has an upper-triangle entry");
      acc += va[k] * xv[c];
      if (c != r) y[c] += va[k] * xv[r];  // the mirrored (c, r) entry
    }
    y[r] += acc;
  }
}

}  // namespace

void multiply_symmetric_half(const CsrView& lower, std::span<const double> x,
                             std::span<double> y) {
  DOOC_REQUIRE(lower.rows() == lower.cols(), "half-stored matrix must be square");
  DOOC_REQUIRE(x.size() >= lower.cols() && y.size() >= lower.rows(),
               "operand size mismatch in symmetric multiply");
  std::fill(y.begin(), y.end(), 0.0);
  lower.visit([&](auto rp, auto ci) {
    symmetric_half_rows(rp, ci, lower.values(), x.data(), y.data(), 0, lower.rows());
  });
}

void multiply_symmetric_half_parallel(const CsrView& lower, std::span<const double> x,
                                      std::span<double> y, ThreadPool& pool,
                                      const KernelConfig& config) {
  DOOC_REQUIRE(lower.rows() == lower.cols(), "half-stored matrix must be square");
  DOOC_REQUIRE(x.size() >= lower.cols() && y.size() >= lower.rows(),
               "operand size mismatch in symmetric multiply");
  auto& gauges = symv_gauges();
  const std::uint64_t t0 = obs::TraceClock::now_ns();
  // Nominal 4 flops per stored non-zero (2 for the row dot, 2 for the
  // mirrored scatter; diagonal entries do half that).
  const double flops = 4.0 * static_cast<double>(lower.nnz());
  if (pool.size() <= 1 || lower.nnz() < config.serial_nnz_threshold) {
    multiply_symmetric_half(lower, x, y);
    gauges.record(flops, t0, 1.0);
    return;
  }
  const std::uint64_t n = lower.rows();
  std::vector<RowRange> ranges;
  double imbalance = 1.0;
  lower.visit([&](auto row_ptr, auto) {
    ranges = split_rows(row_ptr, pool.size());
    imbalance = partition_imbalance(row_ptr, ranges);
  });

  // Phase 1: each worker owns a row range and scatters into its private
  // partial vector — the scatter to y_c that serialized the old kernel
  // never crosses workers.
  std::vector<std::vector<double>> partials(ranges.size());
  {
    std::vector<std::future<void>> futures;
    futures.reserve(ranges.size());
    for (std::size_t p = 0; p < ranges.size(); ++p) {
      futures.push_back(pool.submit([&, p] {
        auto& partial = partials[p];
        partial.assign(n, 0.0);
        lower.visit([&](auto rp, auto ci) {
          symmetric_half_rows(rp, ci, lower.values(), x.data(), partial.data(),
                              ranges[p].begin, ranges[p].end);
        });
      }));
    }
    for (auto& f : futures) f.get();
  }

  // Phase 2: parallel reduction — the index space is sliced across the
  // pool and each worker sums every partial over its slice (fixed
  // partition order, so the result is deterministic for this pool size).
  pool.parallel_ranges(n, [&](std::size_t begin, std::size_t end) {
    std::fill(y.begin() + static_cast<std::ptrdiff_t>(begin),
              y.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
    for (const auto& partial : partials) add_slice(partial, y, begin, end);
  });
  gauges.record(flops, t0, imbalance);
}

}  // namespace dooc::spmv
