// Micro-kernel bench: a partitioner sweep of the CSR SpMV kernel (serial,
// equal-row split, nnz-balanced split) followed by the google-benchmark
// suite over the hot primitives.
//
// The sweep reports two timings per kernel:
//  * wall     — one threaded multiply, as the engine runs it;
//  * critical — each partition range timed serially, taking the maximum.
// The critical path is what a perfectly scheduled pool would pay, so it
// exposes load imbalance deterministically even on machines without
// enough cores to show it in wall time. Each reading is the best of kReps
// back-to-back calls; the whole sweep runs kSweeps times and every
// recorded reading is the median over the sweeps, so a short burst of
// noise on a shared host moves neither a reading nor an acceptance check.
// Results are persisted to BENCH_kernels.json; the process exits non-zero
// if the balanced split loses against the acceptance thresholds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <numeric>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "simcluster/flow_network.hpp"
#include "spmv/generator.hpp"
#include "spmv/kernels.hpp"
#include "spmv/partition.hpp"
#include "storage/storage_cluster.hpp"

namespace {

using namespace dooc;

// ---------------------------------------------------------------------------
// Partitioner sweep
// ---------------------------------------------------------------------------

/// Rows reordered by descending population — the degree-sorted layout of
/// real graph/CI matrices, where an equal-row split hands the first worker
/// nearly all of the work.
spmv::CsrMatrix sort_rows_by_length_desc(const spmv::CsrMatrix& m) {
  std::vector<std::uint64_t> order(m.rows);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return m.row_ptr[a + 1] - m.row_ptr[a] > m.row_ptr[b + 1] - m.row_ptr[b];
  });
  spmv::CsrMatrix out;
  out.rows = m.rows;
  out.cols = m.cols;
  out.row_ptr.reserve(m.rows + 1);
  out.row_ptr.push_back(0);
  out.col_idx.reserve(m.nnz());
  out.values.reserve(m.nnz());
  for (std::uint64_t r : order) {
    for (std::uint64_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      out.col_idx.push_back(m.col_idx[k]);
      out.values.push_back(m.values[k]);
    }
    out.row_ptr.push_back(out.col_idx.size());
  }
  return out;
}

struct SweepShape {
  std::string name;
  spmv::CsrMatrix matrix;
};

struct SweepResult {
  std::string shape;
  std::string kernel;
  double wall_s = 0.0;
  double critical_s = 0.0;
  double imbalance = 1.0;
};

constexpr int kReps = 5;          ///< best-of-N calls per reading
constexpr int kSweeps = 7;        ///< readings per kernel; the median is recorded
constexpr std::size_t kParts = 4; ///< partition count for the split kernels

template <typename Fn>
double best_of(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) best = std::min(best, bench::time_seconds(fn));
  return best;
}

/// Max over ranges of the serial time of that range — the pool's critical
/// path under perfect scheduling.
template <typename RangeFn>
double critical_path(const std::vector<spmv::RowRange>& ranges, RangeFn&& run_range) {
  double cp = 0.0;
  for (const auto& r : ranges) {
    if (r.size() == 0) continue;
    cp = std::max(cp, best_of([&] { run_range(r); }));
  }
  return cp;
}

/// One threaded multiply over the given row ranges: multiply_parallel's
/// execution with the split supplied, so the equal-row yardstick (which
/// the kernels no longer use) runs the same way as the balanced split.
void multiply_split(const spmv::CsrView& a, std::span<const double> x, std::span<double> y,
                    ThreadPool& pool, const std::vector<spmv::RowRange>& ranges) {
  std::vector<std::future<void>> futures;
  for (const spmv::RowRange& r : ranges) {
    futures.push_back(pool.submit([&, r] { a.multiply_rows(x, y, r.begin, r.end); }));
  }
  for (auto& f : futures) f.get();
}

/// One pass over the kernels of a shape.
std::vector<SweepResult> run_shape(const SweepShape& shape, ThreadPool& pool) {
  const spmv::CsrMatrix& m = shape.matrix;
  std::vector<std::byte> csr_bytes;
  spmv::serialize_csr(m, csr_bytes);
  const auto view = spmv::CsrView::from_bytes(csr_bytes);

  std::vector<double> x(m.cols), y(m.rows);
  SplitMix64 rng(0x5EED);
  for (auto& v : x) v = rng.next_double() - 0.5;

  const auto equal = spmv::equal_row_ranges(m.rows, kParts);
  const auto balanced = spmv::balanced_row_ranges(m.row_ptr, kParts);
  spmv::KernelConfig eager;
  eager.serial_nnz_threshold = 0;
  const auto run_rows = [&](const spmv::RowRange& r) { view.multiply_rows(x, y, r.begin, r.end); };

  std::vector<SweepResult> out;
  auto add = [&](std::string kernel, double wall, double critical, double imbalance) {
    out.push_back({shape.name, std::move(kernel), wall, critical, imbalance});
  };
  add("csr-serial", best_of([&] { view.multiply(x, y); }),
      best_of([&] { view.multiply(x, y); }), 1.0);
  add("csr-equal", best_of([&] { multiply_split(view, x, y, pool, equal); }),
      critical_path(equal, run_rows), spmv::partition_imbalance(m.row_ptr, equal));
  add("csr-balanced", best_of([&] { spmv::multiply_parallel(view, x, y, pool, eager); }),
      critical_path(balanced, run_rows), spmv::partition_imbalance(m.row_ptr, balanced));
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// kSweeps passes over every shape (interleaved, so a short noise burst
/// lands on one pass of a reading), reduced to per-reading medians.
std::vector<SweepResult> run_sweeps(const std::vector<SweepShape>& shapes, ThreadPool& pool) {
  std::vector<std::vector<SweepResult>> passes(kSweeps);
  for (auto& pass : passes) {
    for (const auto& shape : shapes) {
      for (SweepResult& r : run_shape(shape, pool)) pass.push_back(std::move(r));
    }
  }
  std::vector<SweepResult> out = passes.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> walls, criticals;
    for (const auto& pass : passes) {
      walls.push_back(pass[i].wall_s);
      criticals.push_back(pass[i].critical_s);
    }
    out[i].wall_s = median(std::move(walls));
    out[i].critical_s = median(std::move(criticals));
  }
  return out;
}

double find_critical(const std::vector<SweepResult>& rs, const std::string& shape,
                     const std::string& kernel) {
  for (const auto& r : rs) {
    if (r.shape == shape && r.kernel == kernel) return r.critical_s;
  }
  std::fprintf(stderr, "sweep result missing: %s/%s\n", shape.c_str(), kernel.c_str());
  std::exit(2);
}

int run_kernel_sweep() {
  bench::section("SpMV kernel sweep: partitioner");

  std::vector<SweepShape> shapes;
  const std::uint64_t n = 16384;
  const double d = spmv::choose_gap_parameter(n, n, n * 64);
  shapes.push_back({"uniform", spmv::generate_uniform_gap(n, n, d, 0xA11CE)});
  shapes.push_back(
      {"skewed", sort_rows_by_length_desc(spmv::generate_power_law(n, n, 64.0, 1.5, 0xCAFE))});

  ThreadPool pool(kParts);
  bench::Table table({"shape", "kernel", "nnz", "wall ms", "critical ms", "GFLOP/s(crit)",
                      "imbalance"});
  bench::JsonReport report;
  report.meta("bench", "kernels");
  report.meta("parts", static_cast<std::uint64_t>(kParts));
  report.meta("reps", static_cast<std::uint64_t>(kReps));
  report.meta("sweeps", static_cast<std::uint64_t>(kSweeps));

  const std::vector<SweepResult> all = run_sweeps(shapes, pool);
  for (const auto& r : all) {
    const auto& shape = *std::find_if(shapes.begin(), shapes.end(),
                                      [&](const SweepShape& s) { return s.name == r.shape; });
    const double flops = 2.0 * static_cast<double>(shape.matrix.nnz());
    table.add_row({r.shape, r.kernel, std::to_string(shape.matrix.nnz()),
                   bench::fmt("%.3f", r.wall_s * 1e3), bench::fmt("%.3f", r.critical_s * 1e3),
                   bench::fmt("%.2f", flops / r.critical_s * 1e-9),
                   bench::fmt("%.2f", r.imbalance)});
    report.add_record()
        .field("shape", r.shape)
        .field("kernel", r.kernel)
        .field("rows", shape.matrix.rows)
        .field("nnz", shape.matrix.nnz())
        .field("wall_s", r.wall_s)
        .field("critical_s", r.critical_s)
        .field("gflops_critical", flops / r.critical_s * 1e-9)
        .field("imbalance", r.imbalance);
  }
  table.print();

  const std::string artifact = "BENCH_kernels.json";
  if (!report.write(artifact)) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", artifact.c_str());

  // Acceptance: the balanced split must never lose to the serial kernel on
  // the critical path, and must win clearly where the equal split starves.
  int failures = 0;
  auto expect = [&](bool ok, const char* what, double lhs, double rhs) {
    std::printf("%-58s %8.3f vs %8.3f ms  [%s]\n", what, lhs * 1e3, rhs * 1e3,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  const double cs_u = find_critical(all, "uniform", "csr-serial");
  const double cb_u = find_critical(all, "uniform", "csr-balanced");
  const double ce_s = find_critical(all, "skewed", "csr-equal");
  const double cb_s = find_critical(all, "skewed", "csr-balanced");
  expect(cb_u <= cs_u, "uniform: balanced critical path <= serial", cb_u, cs_u);
  expect(cb_s * 1.15 <= ce_s, "skewed: balanced beats equal split by >= 1.15x", cb_s, ce_s);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

const spmv::CsrMatrix& test_matrix() {
  static const spmv::CsrMatrix m = spmv::generate_uniform_gap(8192, 8192, 4.0, 0xbe9c);
  return m;
}

const std::vector<std::byte>& test_matrix_bytes() {
  static const std::vector<std::byte> bytes = [] {
    std::vector<std::byte> b;
    spmv::serialize_csr(test_matrix(), b);
    return b;
  }();
  return bytes;
}

void BM_SpmvSerial(benchmark::State& state) {
  const auto view = spmv::CsrView::from_bytes(test_matrix_bytes());
  std::vector<double> x(view.cols(), 1.0), y(view.rows());
  for (auto _ : state) {
    view.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.nnz()));
}
BENCHMARK(BM_SpmvSerial);

void BM_SpmvSplit(benchmark::State& state) {
  const auto view = spmv::CsrView::from_bytes(test_matrix_bytes());
  std::vector<double> x(view.cols(), 1.0), y(view.rows());
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    spmv::multiply_parallel(view, x, y, pool);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.nnz()));
}
BENCHMARK(BM_SpmvSplit)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

void BM_Blas1Dot(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  std::vector<double> a(n, 1.25), b(n, 0.75);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const double d = state.range(0) > 1 ? spmv::dot(a, b, pool) : spmv::dot(a, b);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_Blas1Dot)->Arg(1)->Arg(4)->ArgName("threads");

void BM_SumVectors(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const auto parts_count = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> storage_parts(parts_count, std::vector<double>(n, 1.0));
  std::vector<std::span<const double>> parts(storage_parts.begin(), storage_parts.end());
  std::vector<double> out(n);
  for (auto _ : state) {
    spmv::sum_vectors(parts, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8 * (parts_count + 1)));
}
BENCHMARK(BM_SumVectors)->Arg(3)->Arg(5)->Arg(25);

void BM_CsrParse(benchmark::State& state) {
  const auto& bytes = test_matrix_bytes();
  for (auto _ : state) {
    auto view = spmv::CsrView::from_bytes(bytes);
    benchmark::DoNotOptimize(view.nnz());
  }
}
BENCHMARK(BM_CsrParse);

void BM_CsrSerialize(benchmark::State& state) {
  const auto& m = test_matrix();
  for (auto _ : state) {
    std::vector<std::byte> out;
    spmv::serialize_csr(m, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.serialized_bytes()));
}
BENCHMARK(BM_CsrSerialize);

void BM_StorageWriteSealRead(benchmark::State& state) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("dooc_bm_" + std::to_string(::getpid())))
                              .string();
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  cfg.memory_budget = 1ull << 30;
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t counter = 0;
  for (auto _ : state) {
    const std::string name = "bm" + std::to_string(counter++);
    node.create_array(name, bytes, bytes);
    {
      auto w = node.request_write({name, 0, bytes}).get();
      w.bytes()[0] = std::byte{1};
    }
    {
      auto r = node.request_read({name, 0, bytes}).get();
      benchmark::DoNotOptimize(r.bytes().data());
    }
    node.delete_array(name);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StorageWriteSealRead)->Arg(4096)->Arg(1 << 20);

void BM_FlowNetworkRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  sim::FlowNetwork net;
  const auto agg = net.add_resource("agg", 1e9);
  std::vector<sim::ResourceId> links;
  for (int i = 0; i < 36; ++i) links.push_back(net.add_resource("l" + std::to_string(i), 1e8));
  SplitMix64 rng(3);
  for (int i = 0; i < flows; ++i) {
    net.start_flow(1ull << 40, {links[rng.next_below(36)], agg}, 9e7);
  }
  for (auto _ : state) {
    net.recompute_rates();
    benchmark::DoNotOptimize(net.active_flows());
  }
}
BENCHMARK(BM_FlowNetworkRecompute)->Arg(8)->Arg(72);

}  // namespace

int main(int argc, char** argv) {
  const int sweep_status = run_kernel_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sweep_status;
}
