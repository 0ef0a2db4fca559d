// Aligned, reusable read buffers for the I/O filters.
//
// Every block load used to allocate (and zero) a fresh vector; on the
// storage hot path that memset is a second pass over every byte read — a
// hidden half of the "stream-read double copy". BufferPool hands out
// page-aligned allocations padded to the alignment, wrapped as ordinary
// DataBuffers: when the last handle drops, the allocation returns to a
// bounded per-size-class free list instead of the allocator. Steady-state
// block reads therefore reuse the same few buffers with zero allocation and
// zero pre-touch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/buffer.hpp"

namespace dooc::storage {

class BufferPool {
 public:
  struct Config {
    /// Allocation alignment and padding quantum; must be a power of two
    /// and >= 512.
    std::size_t alignment = 4096;
    /// Retained free buffers per size class; excess frees go back to the
    /// allocator so one burst cannot pin memory forever.
    std::size_t max_retained = 8;
  };

  struct Stats {
    std::uint64_t allocations = 0;  ///< fresh aligned allocations
    std::uint64_t reuses = 0;       ///< acquisitions served from the free list
    std::uint64_t retained = 0;     ///< buffers currently parked in free lists
    std::uint64_t outstanding = 0;  ///< buffers currently lent out
  };

  BufferPool();  ///< default Config
  explicit BufferPool(Config cfg);

  /// A DataBuffer of exactly `size` bytes whose backing allocation is
  /// aligned to cfg.alignment and padded to a multiple of it — writing up
  /// to padded_capacity(size) bytes through data() is in bounds. The
  /// memory is NOT zeroed. Thread-safe.
  [[nodiscard]] DataBuffer acquire(std::size_t size);

  /// Usable capacity behind a buffer returned by acquire(size).
  [[nodiscard]] std::size_t padded_capacity(std::size_t size) const noexcept;

  [[nodiscard]] std::size_t alignment() const noexcept;
  [[nodiscard]] Stats stats() const;

 private:
  struct State;
  /// Shared so in-flight buffers can outlive the pool: their deleters hold
  /// the state and simply free once the pool itself is gone.
  std::shared_ptr<State> state_;
};

}  // namespace dooc::storage
