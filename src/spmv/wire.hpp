// Overflow-checked arithmetic for parsing untrusted serialized-matrix
// headers: a hostile rows/nnz can wrap the byte-count computation past the
// buffer size and turn a truncation check into an out-of-bounds read. All
// helpers return false (or no value) on wraparound instead.
#pragma once

#include <cstdint>
#include <optional>

namespace dooc::spmv::wire {

[[nodiscard]] inline bool checked_add(std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
  return !__builtin_add_overflow(a, b, &out);
}

[[nodiscard]] inline bool checked_mul(std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

/// n elements of `width` bytes padded up to an 8-byte boundary; nullopt on
/// overflow.
[[nodiscard]] inline std::optional<std::uint64_t> padded_bytes(std::uint64_t n,
                                                               std::uint64_t width) {
  std::uint64_t raw, padded;
  if (!checked_mul(n, width, raw) || !checked_add(raw, 7, padded)) return std::nullopt;
  return padded & ~std::uint64_t{7};
}

/// Running total that latches overflow: acc.add(x).add_array(n, 4).ok() style.
class ByteCount {
 public:
  ByteCount& add(std::uint64_t n) {
    ok_ = ok_ && checked_add(total_, n, total_);
    return *this;
  }
  /// `count` elements of `width` bytes, padded to 8 bytes.
  ByteCount& add_array(std::uint64_t count, std::uint64_t width) {
    const auto bytes = padded_bytes(count, width);
    ok_ = ok_ && bytes.has_value() && checked_add(total_, *bytes, total_);
    return *this;
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::uint64_t total_ = 0;
  bool ok_ = true;
};

}  // namespace dooc::spmv::wire
