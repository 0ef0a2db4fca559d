// Untyped, reference-counted data buffers.
//
// DataCutter moves data along streams in *untyped data-buffers* "in order to
// minimize various system overheads" (paper §III-A). DataBuffer is that
// primitive: a contiguous byte extent with shared ownership, cheap to pass
// between filters on the same node and explicitly copied when it crosses a
// virtual-node boundary (to preserve distributed-memory semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace dooc {

/// Shared, untyped byte buffer. Copying a DataBuffer aliases the payload;
/// use clone() to make an actual deep copy (done by the transport at
/// virtual-node boundaries).
class DataBuffer {
 public:
  DataBuffer() = default;

  /// Allocate a zero-initialized buffer of `size` bytes.
  explicit DataBuffer(std::size_t size) {
    auto vec = std::make_shared<std::vector<std::byte>>(size);
    size_ = size;
    bytes_ = std::shared_ptr<std::byte>(vec, vec->data());
  }

  /// Adopt externally-owned memory (e.g. an aligned allocation from a
  /// buffer pool whose deleter returns it to the pool). `mem` must cover at
  /// least `size` bytes and stays alive as long as any aliasing handle.
  static DataBuffer adopt(std::shared_ptr<std::byte> mem, std::size_t size) {
    DataBuffer b;
    b.bytes_ = std::move(mem);
    b.size_ = size;
    return b;
  }

  /// Allocate `size` bytes without zero-filling them: for a caller that
  /// overwrites every byte. Pages nothing has written cost no resident
  /// memory.
  static DataBuffer uninitialized(std::size_t size) {
    if (size == 0) return {};
    std::shared_ptr<std::byte> mem(new std::byte[size], std::default_delete<std::byte[]>());
    return adopt(std::move(mem), size);
  }

  /// Wrap a copy of the given extent.
  static DataBuffer copy_of(const void* data, std::size_t size) {
    DataBuffer b = uninitialized(size);
    if (size != 0) std::memcpy(b.data(), data, size);
    return b;
  }

  /// Deep copy (new allocation, same contents).
  [[nodiscard]] DataBuffer clone() const {
    if (!bytes_) return {};
    return copy_of(data(), size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::byte* data() noexcept { return bytes_.get(); }
  [[nodiscard]] const std::byte* data() const noexcept { return bytes_.get(); }

  [[nodiscard]] std::span<std::byte> span() noexcept { return {data(), size()}; }
  [[nodiscard]] std::span<const std::byte> span() const noexcept { return {data(), size()}; }

  /// Reinterpret the payload as an array of trivially-copyable T.
  template <typename T>
  [[nodiscard]] std::span<T> as() {
    static_assert(std::is_trivially_copyable_v<T>);
    DOOC_REQUIRE(size() % sizeof(T) == 0, "buffer size not a multiple of element size");
    return {reinterpret_cast<T*>(data()), size() / sizeof(T)};
  }

  template <typename T>
  [[nodiscard]] std::span<const T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    DOOC_REQUIRE(size() % sizeof(T) == 0, "buffer size not a multiple of element size");
    return {reinterpret_cast<const T*>(data()), size() / sizeof(T)};
  }

  /// Number of DataBuffer handles sharing this payload (diagnostics only).
  [[nodiscard]] long use_count() const noexcept { return bytes_.use_count(); }

  friend bool operator==(const DataBuffer& a, const DataBuffer& b) noexcept {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::shared_ptr<std::byte> bytes_;  ///< aliasing pointer to the first byte
  std::size_t size_ = 0;
};

}  // namespace dooc
