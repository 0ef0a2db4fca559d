#include "spmv/csr.hpp"

#include <cstring>
#include <sstream>
#include <type_traits>

#include "spmv/wire.hpp"

namespace dooc::spmv {

namespace {

/// y[r] = sum_k values[k] * x[col[k]] for r in [begin, end): the one CSR
/// row kernel, instantiated per index-width pair. Every instantiation
/// accumulates in the same order, so all widths give bitwise-equal rows.
template <typename RP, typename CI>
void multiply_rows_kernel(const RP* rp, const CI* ci, const double* va, const double* xv,
                          double* y, std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t r = begin; r < end; ++r) {
    double acc = 0.0;
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += va[k] * xv[ci[k]];
    }
    y[r] = acc;
  }
}

/// Writes n elements of `src` as T (narrowing in the same pass) at `p`;
/// returns the 8-byte-padded end. The pad bytes are left as they are.
template <typename T, typename Src>
std::byte* put_array(std::byte* p, const Src* src, std::uint64_t n) {
  if constexpr (std::is_same_v<T, Src>) {
    if (n != 0) std::memcpy(p, src, n * sizeof(T));  // an empty vector's data() is null
  } else {
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto v = static_cast<T>(src[i]);
      std::memcpy(p + i * sizeof(T), &v, sizeof(T));
    }
  }
  return p + *wire::padded_bytes(n, sizeof(T));
}

/// row_ptr runs monotonically from 0 to nnz: every row's [rp[r], rp[r+1])
/// then lies inside col_idx and values.
template <typename RP>
bool row_ptr_ok(std::span<const RP> rp, std::uint64_t nnz) {
  if (rp.front() != 0 || rp.back() != nnz) return false;
  for (std::size_t r = 1; r < rp.size(); ++r) {
    if (rp[r] < rp[r - 1]) return false;
  }
  return true;
}

}  // namespace

std::uint64_t csr_serialized_bytes(std::uint64_t rows, std::uint64_t cols,
                                   std::uint64_t nnz) noexcept {
  const CsrWidths w = csr_widths(cols, nnz);
  wire::ByteCount n;
  n.add(kCsrHeaderBytes).add_array(rows + 1, w.row_ptr).add_array(nnz, w.col).add_array(nnz, 8);
  return n.total();
}

void CsrMatrix::validate() const {
  DOOC_REQUIRE(row_ptr.size() == rows + 1, "row_ptr size must be rows+1");
  DOOC_REQUIRE(row_ptr.front() == 0, "row_ptr must start at 0");
  DOOC_REQUIRE(row_ptr.back() == nnz(), "row_ptr must end at nnz");
  DOOC_REQUIRE(col_idx.size() == values.size(), "col_idx/values size mismatch");
  for (std::uint64_t r = 0; r < rows; ++r) {
    DOOC_REQUIRE(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be monotone");
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      DOOC_REQUIRE(col_idx[k] < cols, "column index out of range");
      if (k > row_ptr[r]) {
        DOOC_REQUIRE(col_idx[k - 1] < col_idx[k], "column indices must be strictly increasing");
      }
    }
  }
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  DOOC_REQUIRE(x.size() >= cols && y.size() >= rows, "operand size mismatch in CSR multiply");
  multiply_rows_kernel(row_ptr.data(), col_idx.data(), values.data(), x.data(), y.data(), 0,
                       rows);
}

void serialize_csr(const CsrMatrix& m, std::vector<std::byte>& out) {
  const CsrWidths w = csr_widths(m.cols, m.nnz());
  const std::uint64_t header[kCsrHeaderBytes / 8] = {
      kCsrMagic, kEndianProbe, m.rows, m.cols, m.nnz(),
      std::uint64_t{w.row_ptr} | std::uint64_t{w.col} << 8};
  const std::size_t base = out.size();
  out.resize(base + m.serialized_bytes());  // zero-filled, so the pads are zero
  std::byte* p = out.data() + base;
  std::memcpy(p, header, sizeof(header));
  p += sizeof(header);
  p = w.row_ptr == 4 ? put_array<std::uint32_t>(p, m.row_ptr.data(), m.rows + 1)
                     : put_array<std::uint64_t>(p, m.row_ptr.data(), m.rows + 1);
  p = w.col == 2 ? put_array<std::uint16_t>(p, m.col_idx.data(), m.nnz())
                 : put_array<std::uint32_t>(p, m.col_idx.data(), m.nnz());
  put_array<double>(p, m.values.data(), m.nnz());
}

CsrView CsrView::from_bytes(std::span<const std::byte> bytes) {
  std::uint64_t magic = 0;
  if (bytes.size() >= 8) std::memcpy(&magic, bytes.data(), 8);
  if (magic == kRetiredCsrMagic) {
    throw IoError(
        "binary CRS: retired DCRSBIN1 layout (u64 row_ptr, u32 col_idx); regenerate the block");
  }
  if (magic == kRetiredSellMagic) {
    throw IoError(
        "binary CRS: retired DSELBIN1 layout (SELL-C-sigma blocks); regenerate the block as "
        "binary CRS");
  }
  if (bytes.size() < kCsrHeaderBytes) throw IoError("binary CRS: truncated header");
  std::uint64_t header[kCsrHeaderBytes / 8];
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != kCsrMagic) throw IoError("binary CRS: bad magic");
  if (header[1] != kEndianProbe) throw IoError("binary CRS: foreign byte order");
  CsrView v;
  v.rows_ = header[2];
  v.cols_ = header[3];
  v.nnz_ = header[4];
  const std::uint64_t code = header[5];
  v.widths_ = {static_cast<std::uint8_t>(code & 0xFF), static_cast<std::uint8_t>(code >> 8 & 0xFF)};
  if (code >> 16 != 0 || (v.widths_.row_ptr != 4 && v.widths_.row_ptr != 8) ||
      (v.widths_.col != 2 && v.widths_.col != 4)) {
    std::ostringstream msg;
    msg << "binary CRS: unknown index width code 0x" << std::hex << code;
    throw IoError(msg.str());
  }
  // Overflow-checked byte count: an adversarial header (rows near 2^64,
  // huge nnz) must not wrap `need` back under bytes.size() and turn the
  // truncation check into an out-of-bounds read.
  std::uint64_t row_entries;
  wire::ByteCount need;
  if (!wire::checked_add(v.rows_, 1, row_entries)) {
    throw IoError("binary CRS: header overflows size computation");
  }
  need.add(kCsrHeaderBytes)
      .add_array(row_entries, v.widths_.row_ptr)
      .add_array(v.nnz_, v.widths_.col)
      .add_array(v.nnz_, 8);
  if (!need.ok()) throw IoError("binary CRS: header overflows size computation");
  if (bytes.size() < need.total()) throw IoError("binary CRS: truncated payload");
  const std::byte* p = bytes.data() + kCsrHeaderBytes;
  v.row_ptr_ = p;
  p += *wire::padded_bytes(row_entries, v.widths_.row_ptr);
  v.col_idx_ = p;
  p += *wire::padded_bytes(v.nnz_, v.widths_.col);
  v.values_ = {reinterpret_cast<const double*>(p), v.nnz_};
  const bool rows_ok = v.visit([&](auto rp, auto) { return row_ptr_ok(rp, v.nnz_); });
  if (!rows_ok) throw IoError("binary CRS: row_ptr is not monotone from 0 to nnz");
  return v;
}

void CsrView::multiply_rows(std::span<const double> x, std::span<double> y,
                            std::uint64_t row_begin, std::uint64_t row_end) const {
  DOOC_REQUIRE(row_end <= rows_ && row_begin <= row_end, "row range out of bounds");
  DOOC_REQUIRE(x.size() >= cols_ && y.size() >= rows_, "operand size mismatch in CSR multiply");
  visit([&](auto rp, auto ci) {
    multiply_rows_kernel(rp.data(), ci.data(), values_.data(), x.data(), y.data(), row_begin,
                         row_end);
  });
}

CsrMatrix materialize(const CsrView& view) {
  CsrMatrix m;
  m.rows = view.rows();
  m.cols = view.cols();
  view.visit([&](auto rp, auto ci) {
    m.row_ptr.assign(rp.begin(), rp.end());
    m.col_idx.assign(ci.begin(), ci.end());
  });
  m.values.assign(view.values().begin(), view.values().end());
  return m;
}

}  // namespace dooc::spmv
