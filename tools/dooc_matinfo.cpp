// Inspect a sparse matrix file (binary CSR, binary SELL or Matrix Market):
// dimensions, non-zeros, the binary CRS block's index widths and stored
// bytes per non-zero, row-population statistics and histogram, bandwidth,
// symmetry check, and the thread-partition imbalance that tells whether the
// matrix needs the nnz-balanced split / SELL-C-σ kernels.
//
//   dooc_matinfo A.bin
//   dooc_matinfo A.mtx
//   dooc_matinfo --codec-estimate A.bin   predicted block-codec ratio
//
// --codec-estimate samples the column-index delta entropy of the payload
// (spmv::codec::estimate_block) to predict what DOOC_CODEC would achieve on
// this matrix WITHOUT running the encoder — the sizing tool for deciding
// whether a deployment should turn the codec on.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/stats.hpp"
#include "spmv/codec.hpp"
#include "spmv/csr.hpp"
#include "spmv/matrix_market.hpp"
#include "spmv/partition.hpp"
#include "spmv/sell.hpp"

using namespace dooc;

namespace {

spmv::CsrMatrix sell_to_csr(const spmv::SellMatrix& s) {
  // Unpack chunks back to per-row (row, col, value) triplets in row order.
  spmv::CsrMatrix m;
  m.rows = s.rows;
  m.cols = s.cols;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows(s.rows);
  for (std::uint64_t ch = 0; ch < s.num_chunks(); ++ch) {
    const std::uint64_t lanes = std::min<std::uint64_t>(s.chunk, s.rows - ch * s.chunk);
    const std::uint64_t width = (s.chunk_ptr[ch + 1] - s.chunk_ptr[ch]) / s.chunk;
    for (std::uint64_t w = 0; w < width; ++w) {
      for (std::uint64_t lane = 0; lane < lanes; ++lane) {
        const std::uint64_t e = s.chunk_ptr[ch] + w * s.chunk + lane;
        const double v = s.values[e];
        if (v == 0.0) continue;  // padding (or an explicit zero — dropped)
        rows[s.perm[ch * s.chunk + lane]].emplace_back(s.col_idx[e], v);
      }
    }
  }
  m.row_ptr.push_back(0);
  for (auto& row : rows) {
    for (const auto& [c, v] : row) {
      m.col_idx.push_back(c);
      m.values.push_back(v);
    }
    m.row_ptr.push_back(m.col_idx.size());
  }
  return m;
}

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
             magic == spmv::kSellMagic)) {
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::byte> bytes(size);
    in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
    if (magic == spmv::kSellMagic) {
      return sell_to_csr(spmv::materialize(spmv::SellView::from_bytes(bytes)));
    }
    const auto view = spmv::CsrView::from_bytes(bytes);
    layout = {view.widths(), size};
    return spmv::materialize(view);
  }
  return spmv::read_matrix_market_file(path);
}

void print_partition_report(const spmv::CsrMatrix& m) {
  // Imbalance of the two splits at representative thread counts, plus the
  // SELL-C-σ padding overhead — the numbers that pick the kernel config.
  std::printf("partitioning (max part nnz / ideal):\n");
  double worst_equal = 1.0;
  for (std::size_t parts : {4u, 16u}) {
    const double eq = spmv::partition_imbalance(m.row_ptr, spmv::equal_row_ranges(m.rows, parts));
    const double bal =
        spmv::partition_imbalance(m.row_ptr, spmv::balanced_row_ranges(m.row_ptr, parts));
    worst_equal = std::max(worst_equal, eq);
    std::printf("  P=%-3zu equal-rows %.2f   nnz-balanced %.2f\n", parts, eq, bal);
  }
  const double fill = spmv::build_sell(m, 8, 256).fill_ratio();
  std::printf("SELL-8-256:  fill ratio %.3f (padding overhead %.1f%%)\n", fill,
              (fill - 1.0) * 100.0);
  if (worst_equal > 1.5) {
    std::printf("recommend:   nnz-balanced split%s (equal-rows starves at %.1fx)\n",
                fill < 1.5 ? " + SELL-C-sigma" : "", worst_equal);
  } else {
    std::printf("recommend:   row lengths are uniform; any split works\n");
  }
}

void print_codec_estimate(const spmv::CsrMatrix& m) {
  // Predicted DOOC_CODEC ratios from sampled column-delta entropy — no
  // encoder pass, so this stays cheap on matrices that don't fit in memory
  // comfortably twice.
  std::vector<std::byte> raw;
  serialize_csr(m, raw);
  const spmv::codec::CodecEstimate est = spmv::codec::estimate_block(raw);
  std::printf("codec estimate (sampled, no encode pass):\n");
  std::printf("  index streams:  ~%.2fx (delta entropy %.2f bits over %llu sampled deltas)\n",
              est.index_ratio, est.delta_entropy_bits,
              static_cast<unsigned long long>(est.sampled_deltas));
  std::printf("  whole payload:  ~%.2fx\n", est.overall_ratio);
  if (est.overall_ratio >= 1.05) {
    std::printf("  recommend:      DOOC_CODEC=adaptive (predicted ratio clears the 1.05 gate)\n");
  } else {
    std::printf("  recommend:      leave the codec off; predicted ratio %.2fx is below the\n"
                "                  adaptive gate, blocks would be stored raw anyway\n",
                est.overall_ratio);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool codec_estimate = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--codec-estimate") {
      codec_estimate = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: dooc_matinfo [--codec-estimate] FILE\n");
    return 2;
  }
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
    if (codec_estimate && m.nnz() > 0) print_codec_estimate(m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
