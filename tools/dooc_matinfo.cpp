// Inspect a sparse matrix file (binary CSR or Matrix Market): dimensions,
// non-zeros, the binary CRS block's index widths and stored bytes per
// non-zero, row-population statistics and histogram, bandwidth, symmetry
// check, and how skewed the rows are for a threaded multiply (equal-row vs
// the kernels' nnz-balanced split).
//
//   dooc_matinfo A.bin
//   dooc_matinfo A.mtx
//
// A file in a retired block layout (DCRSBIN1, DSELBIN1, DCODBLK1) fails
// with an error that names the layout.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/stats.hpp"
#include "spmv/csr.hpp"
#include "spmv/matrix_market.hpp"
#include "spmv/partition.hpp"

using namespace dooc;

namespace {

/// Index widths and stored size of a matrix as a binary CRS block.
struct CrsLayout {
  spmv::CsrWidths widths;
  std::uint64_t bytes = 0;
};

/// Loads the matrix; a binary CRS file also fills `layout` from its header.
spmv::CsrMatrix load(const std::string& path, CrsLayout& layout) {
  // Try the binary formats first (cheap magic check), then Matrix Market.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "'");
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (in && (magic == spmv::kCsrMagic || magic == spmv::kRetiredCsrMagic ||
             magic == spmv::kRetiredSellMagic || magic == spmv::kRetiredCodecMagic)) {
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::byte> bytes(size);
    in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
    const auto view = spmv::CsrView::from_bytes(bytes);
    layout = {view.widths(), size};
    return spmv::materialize(view);
  }
  return spmv::read_matrix_market_file(path);
}

void print_partition_report(const spmv::CsrMatrix& m) {
  // Imbalance at representative thread counts of the kernels' nnz-balanced
  // split, against an equal-row split as the measure of row skew.
  std::printf("partitioning (max part nnz / ideal):\n");
  for (std::size_t parts : {4u, 16u}) {
    const double eq = spmv::partition_imbalance(m.row_ptr, spmv::equal_row_ranges(m.rows, parts));
    const double bal =
        spmv::partition_imbalance(m.row_ptr, spmv::balanced_row_ranges(m.row_ptr, parts));
    std::printf("  P=%-3zu equal-rows %.2f   nnz-balanced %.2f\n", parts, eq, bal);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: dooc_matinfo FILE\n");
    return 2;
  }
  const char* path = argv[1];
  try {
    CrsLayout layout;
    const auto m = load(path, layout);
    m.validate();
    // Other inputs report the block serialize_csr would write.
    if (layout.bytes == 0) layout = {spmv::csr_widths(m.cols, m.nnz()), m.serialized_bytes()};
    std::printf("file:        %s\n", path);
    std::printf("dimensions:  %llu x %llu\n", static_cast<unsigned long long>(m.rows),
                static_cast<unsigned long long>(m.cols));
    std::printf("non-zeros:   %llu (%.3f per row, density %.2e)\n",
                static_cast<unsigned long long>(m.nnz()),
                static_cast<double>(m.nnz()) / static_cast<double>(m.rows),
                static_cast<double>(m.nnz()) /
                    (static_cast<double>(m.rows) * static_cast<double>(m.cols)));
    std::printf("binary CSR:  %s (u%d row_ptr, u%d col_idx, %.2f bytes/nnz stored)\n",
                format_bytes(static_cast<double>(layout.bytes)).c_str(),
                8 * layout.widths.row_ptr, 8 * layout.widths.col,
                static_cast<double>(layout.bytes) /
                    static_cast<double>(std::max<std::uint64_t>(m.nnz(), 1)));

    RunningStats row_stats;
    Log2Histogram row_hist;
    std::uint64_t empty_rows = 0, bandwidth = 0, diag_nnz = 0;
    bool structurally_symmetric = m.rows == m.cols;
    for (std::uint64_t r = 0; r < m.rows; ++r) {
      const std::uint64_t count = m.row_ptr[r + 1] - m.row_ptr[r];
      row_stats.add(static_cast<double>(count));
      row_hist.add(static_cast<double>(count));
      if (count == 0) ++empty_rows;
      for (std::uint64_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
        const std::uint64_t c = m.col_idx[k];
        bandwidth = std::max(bandwidth, c > r ? c - r : r - c);
        if (c == r) ++diag_nnz;
        if (structurally_symmetric) {
          // Check the mirrored entry exists (pattern symmetry only).
          bool found = false;
          for (std::uint64_t k2 = m.row_ptr[c]; k2 < m.row_ptr[c + 1]; ++k2) {
            if (m.col_idx[k2] == r) {
              found = true;
              break;
            }
          }
          if (!found) structurally_symmetric = false;
        }
      }
    }
    std::printf("row nnz:     min %.0f / mean %.2f / max %.0f (stddev %.2f)\n", row_stats.min(),
                row_stats.mean(), row_stats.max(), row_stats.stddev());
    std::printf("row nnz q:   p50 %.0f / p90 %.0f / p99 %.0f\n", row_hist.quantile(0.5),
                row_hist.quantile(0.9), row_hist.quantile(0.99));
    // Log2 histogram of row populations, one bar per occupied bucket.
    if (m.rows > 0) {
      std::uint64_t max_count = 1;
      for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
        max_count = std::max(max_count, row_hist.bucket(static_cast<std::size_t>(b)));
      }
      std::printf("row length histogram (log2 buckets):\n");
      for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
        const std::uint64_t c = row_hist.bucket(static_cast<std::size_t>(b));
        if (c == 0) continue;
        const auto lo = b == 0 ? 0ull : 1ull << (b - 1);
        const auto hi = b == 0 ? 1ull : 1ull << b;
        const int bar = static_cast<int>(50 * c / max_count);
        std::printf("  [%6llu, %6llu)  %10llu  %.*s\n", static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi), static_cast<unsigned long long>(c), bar,
                    "##################################################");
      }
    }
    std::printf("empty rows:  %llu\n", static_cast<unsigned long long>(empty_rows));
    std::printf("bandwidth:   %llu\n", static_cast<unsigned long long>(bandwidth));
    std::printf("diagonal:    %llu of %llu present\n", static_cast<unsigned long long>(diag_nnz),
                static_cast<unsigned long long>(std::min(m.rows, m.cols)));
    if (m.rows == m.cols) {
      std::printf("symmetry:    pattern %s\n",
                  structurally_symmetric ? "symmetric" : "asymmetric");
    }
    if (m.rows > 0 && m.nnz() > 0) print_partition_report(m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
