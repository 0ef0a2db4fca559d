// Compressed Row Storage (CRS/CSR) sparse matrices.
//
// Two forms:
//  * CsrMatrix — owning, mutable, u64 row_ptr / u32 col_idx; produced by
//    generators and tests, and multiplied by the serial reference.
//  * CsrView  — non-owning view over the binary CRS byte layout (the
//    paper's on-disk sub-matrix format). A storage ReadHandle's bytes can
//    be viewed directly, so an out-of-core multiply never copies the
//    matrix after it reaches memory.
//
// Binary CRS layout (little-endian, every section padded to 8 bytes):
//   u64 magic      'DCRSBIN2'
//   u64 endian     0x0102030405060708 (readers reject foreign byte order)
//   u64 rows, cols, nnz
//   u64 widths     row_ptr bytes | col_idx bytes << 8: (4|8) | (2|4) << 8
//   u32|u64 row_ptr[rows+1]
//   u16|u32 col_idx[nnz]
//   f64 values[nnz]
// The writer picks the narrowest widths that hold the block (csr_widths):
// block-local columns are u16 when cols <= 65,536 and row pointers are u32
// when nnz < 2^32. Row and value order are those of the CsrMatrix, so any
// multiply over the bytes is bitwise identical to CsrMatrix::multiply. The
// reader accepts every width pair and rejects two retired layouts by name:
// 'DCRSBIN1' (u64 row_ptr, u32 col_idx) and 'DSELBIN1' (SELL-C-σ, the
// former second block format).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace dooc::spmv {

constexpr std::uint64_t kCsrMagic = 0x44435253'42494E32ull;        // "DCRSBIN2"
constexpr std::uint64_t kRetiredCsrMagic = 0x44435253'42494E31ull;  // "DCRSBIN1"
constexpr std::uint64_t kRetiredSellMagic = 0x4453454C'42494E31ull;  // "DSELBIN1"
constexpr std::uint64_t kEndianProbe = 0x0102030405060708ull;
constexpr std::uint64_t kCsrHeaderBytes = 6 * 8;  // magic, endian, rows, cols, nnz, widths

/// Byte widths of a binary CRS block's index arrays, read from its header.
struct CsrWidths {
  std::uint8_t row_ptr = 4;  ///< 4 (u32) or 8 (u64)
  std::uint8_t col = 2;      ///< 2 (u16) or 4 (u32)

  bool operator==(const CsrWidths&) const = default;
};

/// The narrowest widths that hold a block of `cols` columns and `nnz`
/// non-zeros: u16 columns while every index < 65,536 fits, u32 row
/// pointers while nnz (the last entry) fits.
[[nodiscard]] constexpr CsrWidths csr_widths(std::uint64_t cols, std::uint64_t nnz) noexcept {
  return {static_cast<std::uint8_t>(nnz < (std::uint64_t{1} << 32) ? 4 : 8),
          static_cast<std::uint8_t>(cols <= (std::uint64_t{1} << 16) ? 2 : 4)};
}

/// Size of a block of this shape in the binary CRS layout (csr_widths).
[[nodiscard]] std::uint64_t csr_serialized_bytes(std::uint64_t rows, std::uint64_t cols,
                                                 std::uint64_t nnz) noexcept;

struct CsrMatrix {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<std::uint64_t> row_ptr;  // size rows+1
  std::vector<std::uint32_t> col_idx;  // size nnz
  std::vector<double> values;          // size nnz

  [[nodiscard]] std::uint64_t nnz() const noexcept { return col_idx.size(); }

  /// Structural sanity: monotone row_ptr, in-range sorted column indices.
  void validate() const;

  /// Size of this matrix in the binary CRS byte layout.
  [[nodiscard]] std::uint64_t serialized_bytes() const noexcept {
    return csr_serialized_bytes(rows, cols, nnz());
  }

  /// y = A x (serial). Spans must match dimensions.
  void multiply(std::span<const double> x, std::span<double> y) const;
};

/// Non-owning view over binary CRS bytes.
class CsrView {
 public:
  CsrView() = default;

  /// Parse the layout; throws IoError on a retired layout (by name), bad
  /// magic/endianness/width code, truncation, or a row_ptr that does not
  /// run monotonically from 0 to nnz (checked in O(rows), so no reader can
  /// index past `values`).
  static CsrView from_bytes(std::span<const std::byte> bytes);

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint64_t nnz() const noexcept { return nnz_; }
  [[nodiscard]] CsrWidths widths() const noexcept { return widths_; }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }
  [[nodiscard]] bool valid() const noexcept { return rows_ != 0 || cols_ != 0; }

  /// Call `f(row_ptr, col_idx)` with spans typed by this block's widths
  /// (u32/u64 and u16/u32); every instantiation must return the same type.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    const auto with_rows = [&](auto col_idx) -> decltype(auto) {
      return widths_.row_ptr == 8 ? f(typed<std::uint64_t>(row_ptr_, rows_ + 1), col_idx)
                                  : f(typed<std::uint32_t>(row_ptr_, rows_ + 1), col_idx);
    };
    return widths_.col == 2 ? with_rows(typed<std::uint16_t>(col_idx_, nnz_))
                            : with_rows(typed<std::uint32_t>(col_idx_, nnz_));
  }

  /// y = A x over rows [row_begin, row_end) — the splittable unit the
  /// local scheduler hands to multiple compute threads.
  void multiply_rows(std::span<const double> x, std::span<double> y, std::uint64_t row_begin,
                     std::uint64_t row_end) const;
  /// y = A x over all rows (serial).
  void multiply(std::span<const double> x, std::span<double> y) const {
    multiply_rows(x, y, 0, rows_);
  }

 private:
  template <typename T>
  static std::span<const T> typed(const std::byte* p, std::uint64_t n) noexcept {
    return {reinterpret_cast<const T*>(p), n};
  }

  std::uint64_t rows_ = 0, cols_ = 0, nnz_ = 0;
  CsrWidths widths_;
  const std::byte* row_ptr_ = nullptr;
  const std::byte* col_idx_ = nullptr;
  std::span<const double> values_;
};

/// Serialize to the binary CRS layout at the narrowest widths (appends to
/// `out`).
void serialize_csr(const CsrMatrix& m, std::vector<std::byte>& out);

/// Convenience: round-trip an owning matrix out of a view.
CsrMatrix materialize(const CsrView& view);

}  // namespace dooc::spmv
