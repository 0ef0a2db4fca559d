#include "spmv/csr.hpp"

#include <cstring>

#include "spmv/wire.hpp"

namespace dooc::spmv {

namespace {
constexpr std::uint64_t kHeaderWords = 5;  // magic, endian, rows, cols, nnz

std::uint64_t padded_col_bytes(std::uint64_t nnz) {
  const std::uint64_t raw = nnz * sizeof(std::uint32_t);
  return (raw + 7) & ~std::uint64_t{7};
}
}  // namespace

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

std::uint64_t CsrMatrix::serialized_bytes() const noexcept {
  return kHeaderWords * 8 + (rows + 1) * 8 + padded_col_bytes(nnz()) + nnz() * 8;
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  DOOC_REQUIRE(x.size() >= cols && y.size() >= rows, "operand size mismatch in CSR multiply");
  for (std::uint64_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      acc += values[k] * x[col_idx[k]];
    }
    y[r] = acc;
  }
}

void serialize_csr(const CsrMatrix& m, std::vector<std::byte>& out) {
  const std::uint64_t header[kHeaderWords] = {kCsrMagic, kEndianProbe, m.rows, m.cols, m.nnz()};
  const std::size_t base = out.size();
  out.resize(base + m.serialized_bytes());
  std::byte* p = out.data() + base;
  auto append = [&p](const void* src, std::size_t n) {
    if (n == 0) return;  // an empty matrix's arrays have a null data()
    std::memcpy(p, src, n);
    p += n;
  };
  append(header, sizeof(header));
  append(m.row_ptr.data(), (m.rows + 1) * 8);
  append(m.col_idx.data(), m.nnz() * 4);
  const std::uint64_t pad = padded_col_bytes(m.nnz()) - m.nnz() * 4;
  if (pad != 0) {
    const std::uint64_t zero = 0;
    append(&zero, pad);
  }
  append(m.values.data(), m.nnz() * 8);
}

CsrView CsrView::from_bytes(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderWords * 8) throw IoError("binary CRS: truncated header");
  std::uint64_t header[kHeaderWords];
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != kCsrMagic) throw IoError("binary CRS: bad magic");
  if (header[1] != kEndianProbe) throw IoError("binary CRS: foreign byte order");
  CsrView v;
  v.rows_ = header[2];
  v.cols_ = header[3];
  v.nnz_ = header[4];
  // Overflow-checked byte count: an adversarial header (rows near 2^64,
  // huge nnz) must not wrap `need` back under bytes.size() and turn the
  // truncation check into an out-of-bounds read.
  std::uint64_t row_entries;
  wire::ByteCount need;
  if (!wire::checked_add(v.rows_, 1, row_entries)) {
    throw IoError("binary CRS: header overflows size computation");
  }
  need.add(kHeaderWords * 8)
      .add_u64_array(row_entries)
      .add_padded_u32_array(v.nnz_)
      .add_u64_array(v.nnz_);
  if (!need.ok()) throw IoError("binary CRS: header overflows size computation");
  if (bytes.size() < need.total()) throw IoError("binary CRS: truncated payload");
  const std::byte* p = bytes.data() + kHeaderWords * 8;
  v.row_ptr_ = {reinterpret_cast<const std::uint64_t*>(p), v.rows_ + 1};
  p += (v.rows_ + 1) * 8;
  v.col_idx_ = {reinterpret_cast<const std::uint32_t*>(p), v.nnz_};
  p += padded_col_bytes(v.nnz_);
  v.values_ = {reinterpret_cast<const double*>(p), v.nnz_};
  return v;
}

void CsrView::multiply_rows(std::span<const double> x, std::span<double> y,
                            std::uint64_t row_begin, std::uint64_t row_end) const {
  DOOC_REQUIRE(row_end <= rows_ && row_begin <= row_end, "row range out of bounds");
  DOOC_REQUIRE(x.size() >= cols_ && y.size() >= rows_, "operand size mismatch in CSR multiply");
  const std::uint64_t* rp = row_ptr_.data();
  const std::uint32_t* ci = col_idx_.data();
  const double* va = values_.data();
  const double* xv = x.data();
  for (std::uint64_t r = row_begin; r < row_end; ++r) {
    double acc = 0.0;
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += va[k] * xv[ci[k]];
    }
    y[r] = acc;
  }
}

CsrMatrix materialize(const CsrView& view) {
  CsrMatrix m;
  m.rows = view.rows();
  m.cols = view.cols();
  m.row_ptr.assign(view.row_ptr().begin(), view.row_ptr().end());
  m.col_idx.assign(view.col_idx().begin(), view.col_idx().end());
  m.values.assign(view.values().begin(), view.values().end());
  return m;
}

}  // namespace dooc::spmv
