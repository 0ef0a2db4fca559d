#include "spmv/sell.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "spmv/wire.hpp"

namespace dooc::spmv {

namespace {

constexpr std::uint64_t kSellHeaderWords = 8;  // magic, endian, rows, cols, nnz, C, σ, padded

template <typename RP, typename CI>
SellMatrix build_sell_impl(std::uint64_t rows, std::uint64_t cols, std::span<const RP> row_ptr,
                           std::span<const CI> col_idx, std::span<const double> values,
                           std::uint32_t c, std::uint32_t sigma) {
  DOOC_REQUIRE(c >= 1, "SELL chunk height must be >= 1");
  DOOC_REQUIRE(sigma >= 1, "SELL sort window must be >= 1");
  DOOC_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max(),
               "SELL permutation indices are 32-bit");
  SellMatrix s;
  s.rows = rows;
  s.cols = cols;
  s.nnz = row_ptr.empty() ? 0 : row_ptr[rows] - row_ptr[0];
  s.chunk = c;
  s.sigma = sigma;

  const auto row_len = [&](std::uint64_t r) -> std::uint64_t {
    return row_ptr[r + 1] - row_ptr[r];
  };

  // Sort rows by descending length within σ-windows (stable, so equal-length
  // rows keep their original order). Round the window up to a multiple of C
  // so no chunk straddles two windows.
  s.perm.resize(rows);
  std::iota(s.perm.begin(), s.perm.end(), 0u);
  const std::uint64_t window = (static_cast<std::uint64_t>(sigma) + c - 1) / c * c;
  for (std::uint64_t w = 0; w < rows; w += window) {
    const auto begin = s.perm.begin() + static_cast<std::ptrdiff_t>(w);
    const auto end = s.perm.begin() + static_cast<std::ptrdiff_t>(std::min(rows, w + window));
    std::stable_sort(begin, end, [&](std::uint32_t a, std::uint32_t b) {
      return row_len(a) > row_len(b);
    });
  }

  const std::uint64_t nchunks = s.num_chunks();
  s.chunk_ptr.assign(nchunks + 1, 0);
  for (std::uint64_t ch = 0; ch < nchunks; ++ch) {
    std::uint64_t width = 0;
    const std::uint64_t slot0 = ch * c;
    for (std::uint64_t i = 0; i < c && slot0 + i < rows; ++i) {
      width = std::max(width, row_len(s.perm[slot0 + i]));
    }
    s.chunk_ptr[ch + 1] = s.chunk_ptr[ch] + width * c;
  }

  s.col_idx.assign(s.padded_nnz(), 0u);
  s.values.assign(s.padded_nnz(), 0.0);
  for (std::uint64_t ch = 0; ch < nchunks; ++ch) {
    const std::uint64_t base = s.chunk_ptr[ch];
    const std::uint64_t slot0 = ch * c;
    for (std::uint64_t i = 0; i < c && slot0 + i < rows; ++i) {
      const std::uint32_t r = s.perm[slot0 + i];
      const std::uint64_t len = row_len(r);
      for (std::uint64_t j = 0; j < len; ++j) {
        const std::uint64_t at = base + j * c + i;
        s.col_idx[at] = col_idx[row_ptr[r] + j];
        s.values[at] = values[row_ptr[r] + j];
      }
    }
  }
  return s;
}

}  // namespace

SellMatrix build_sell(const CsrMatrix& m, std::uint32_t c, std::uint32_t sigma) {
  return build_sell_impl(m.rows, m.cols, std::span<const std::uint64_t>(m.row_ptr),
                         std::span<const std::uint32_t>(m.col_idx),
                         std::span<const double>(m.values), c, sigma);
}

SellMatrix build_sell(const CsrView& m, std::uint32_t c, std::uint32_t sigma) {
  return m.visit([&](auto row_ptr, auto col_idx) {
    return build_sell_impl(m.rows(), m.cols(), row_ptr, col_idx, m.values(), c, sigma);
  });
}

std::uint64_t SellMatrix::serialized_bytes() const noexcept {
  const std::uint64_t pad4 = [](std::uint64_t n) { return (n * 4 + 7) & ~std::uint64_t{7}; }(rows);
  const std::uint64_t padc = (padded_nnz() * 4 + 7) & ~std::uint64_t{7};
  return kSellHeaderWords * 8 + (num_chunks() + 1) * 8 + pad4 + padc + padded_nnz() * 8;
}

void SellMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  DOOC_REQUIRE(x.size() >= cols && y.size() >= rows, "operand size mismatch in SELL multiply");
  std::vector<double> acc(chunk);
  const std::uint64_t nchunks = num_chunks();
  for (std::uint64_t ch = 0; ch < nchunks; ++ch) {
    const std::uint64_t base = chunk_ptr[ch];
    const std::uint64_t width = (chunk_ptr[ch + 1] - base) / chunk;
    std::fill(acc.begin(), acc.end(), 0.0);
    double* __restrict pa = acc.data();
    const std::uint32_t* __restrict ci = col_idx.data();
    const double* __restrict va = values.data();
    const double* __restrict xv = x.data();
    for (std::uint64_t j = 0; j < width; ++j) {
      const std::uint64_t off = base + j * chunk;
      for (std::uint32_t i = 0; i < chunk; ++i) pa[i] += va[off + i] * xv[ci[off + i]];
    }
    const std::uint64_t slot0 = ch * chunk;
    for (std::uint32_t i = 0; i < chunk && slot0 + i < rows; ++i) y[perm[slot0 + i]] = pa[i];
  }
}

void serialize_sell(const SellMatrix& m, std::vector<std::byte>& out) {
  const std::uint64_t header[kSellHeaderWords] = {kSellMagic, kEndianProbe, m.rows,  m.cols,
                                                  m.nnz,      m.chunk,      m.sigma, m.padded_nnz()};
  const std::size_t base = out.size();
  out.resize(base + m.serialized_bytes());
  std::byte* p = out.data() + base;
  auto append = [&p](const void* src, std::size_t n) {
    if (n != 0) std::memcpy(p, src, n);
    p += n;
  };
  auto append_padded_u32 = [&](const std::uint32_t* src, std::uint64_t count) {
    append(src, count * 4);
    if (count % 2 != 0) {
      const std::uint32_t zero = 0;
      append(&zero, 4);
    }
  };
  append(header, sizeof(header));
  append(m.chunk_ptr.data(), (m.num_chunks() + 1) * 8);
  append_padded_u32(m.perm.data(), m.rows);
  append_padded_u32(m.col_idx.data(), m.padded_nnz());
  append(m.values.data(), m.padded_nnz() * 8);
}

SellView SellView::from_bytes(std::span<const std::byte> bytes) {
  if (bytes.size() < kSellHeaderWords * 8) throw IoError("binary SELL: truncated header");
  std::uint64_t header[kSellHeaderWords];
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != kSellMagic) throw IoError("binary SELL: bad magic");
  if (header[1] != kEndianProbe) throw IoError("binary SELL: foreign byte order");
  SellView v;
  v.rows_ = header[2];
  v.cols_ = header[3];
  v.nnz_ = header[4];
  const std::uint64_t chunk = header[5];
  const std::uint64_t sigma = header[6];
  const std::uint64_t padded = header[7];
  if (chunk < 1 || chunk > std::numeric_limits<std::uint32_t>::max() || sigma < 1 ||
      sigma > std::numeric_limits<std::uint32_t>::max() ||
      v.rows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw IoError("binary SELL: implausible header");
  }
  v.chunk_ = static_cast<std::uint32_t>(chunk);
  v.sigma_ = static_cast<std::uint32_t>(sigma);
  const std::uint64_t nchunks = v.rows_ == 0 ? 0 : (v.rows_ + chunk - 1) / chunk;

  wire::ByteCount need;
  need.add(kSellHeaderWords * 8)
      .add_array(nchunks + 1, 8)
      .add_array(v.rows_, 4)
      .add_array(padded, 4)
      .add_array(padded, 8);
  if (!need.ok()) throw IoError("binary SELL: header overflows size computation");
  if (bytes.size() < need.total()) throw IoError("binary SELL: truncated payload");

  const std::byte* p = bytes.data() + kSellHeaderWords * 8;
  v.chunk_ptr_ = {reinterpret_cast<const std::uint64_t*>(p), nchunks + 1};
  p += (nchunks + 1) * 8;
  if (v.chunk_ptr_.back() != padded) throw IoError("binary SELL: chunk_ptr/padded_nnz mismatch");
  v.perm_ = {reinterpret_cast<const std::uint32_t*>(p), v.rows_};
  p += *wire::padded_bytes(v.rows_, 4);
  v.col_idx_ = {reinterpret_cast<const std::uint32_t*>(p), padded};
  p += *wire::padded_bytes(padded, 4);
  v.values_ = {reinterpret_cast<const double*>(p), padded};
  return v;
}

void SellView::multiply_chunks(std::span<const double> x, std::span<double> y,
                               std::uint64_t chunk_begin, std::uint64_t chunk_end) const {
  DOOC_REQUIRE(chunk_end <= num_chunks() && chunk_begin <= chunk_end,
               "chunk range out of bounds");
  DOOC_REQUIRE(x.size() >= cols_ && y.size() >= rows_, "operand size mismatch in SELL multiply");
  const std::uint64_t* cp = chunk_ptr_.data();
  const std::uint32_t* pm = perm_.data();
  const std::uint32_t c = chunk_;
  std::vector<double> acc(c);
  for (std::uint64_t ch = chunk_begin; ch < chunk_end; ++ch) {
    const std::uint64_t base = cp[ch];
    const std::uint64_t width = (cp[ch + 1] - base) / c;
    std::fill(acc.begin(), acc.end(), 0.0);
    double* __restrict pa = acc.data();
    const std::uint32_t* __restrict ci = col_idx_.data();
    const double* __restrict va = values_.data();
    const double* __restrict xv = x.data();
    for (std::uint64_t j = 0; j < width; ++j) {
      const std::uint64_t off = base + j * c;
      for (std::uint32_t i = 0; i < c; ++i) pa[i] += va[off + i] * xv[ci[off + i]];
    }
    const std::uint64_t slot0 = ch * c;
    for (std::uint32_t i = 0; i < c && slot0 + i < rows_; ++i) y[pm[slot0 + i]] = pa[i];
  }
}

SellMatrix materialize(const SellView& view) {
  SellMatrix m;
  m.rows = view.rows();
  m.cols = view.cols();
  m.nnz = view.nnz();
  m.chunk = view.chunk();
  m.sigma = view.sigma();
  m.chunk_ptr.assign(view.chunk_ptr().begin(), view.chunk_ptr().end());
  m.perm.assign(view.perm().begin(), view.perm().end());
  m.col_idx.assign(view.col_idx().begin(), view.col_idx().end());
  m.values.assign(view.values().begin(), view.values().end());
  return m;
}

BlockFormat sniff_block_format(std::span<const std::byte> bytes) {
  if (bytes.size() >= 8) {
    std::uint64_t magic;
    std::memcpy(&magic, bytes.data(), 8);
    // The retired CRS layout sniffs as CSR so CsrView names it in its error.
    if (magic == kCsrMagic || magic == kRetiredCsrMagic) return BlockFormat::Csr;
    if (magic == kSellMagic) return BlockFormat::Sell;
  }
  throw IoError("unknown matrix block format (neither binary CRS nor SELL magic)");
}

}  // namespace dooc::spmv
