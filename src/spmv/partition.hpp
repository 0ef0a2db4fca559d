// Row partitioning for threaded sparse kernels.
//
// The kernels split rows nnz-balanced: row_ptr *is* the prefix sum of
// per-row work, so cutting it at multiples of nnz/parts gives every worker
// ~the same number of non-zeros at O(parts · log rows) cost. The equal-row
// split (the same number of rows per worker) is kept only as the yardstick
// that bench_micro_kernels and dooc_matinfo measure against: on skewed
// matrices (power-law row populations, CI Hamiltonians with dense stripes)
// it hands one worker almost all the non-zeros.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dooc::spmv {

/// Half-open row range [begin, end) handed to one worker.
struct RowRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
  bool operator==(const RowRange&) const = default;
};

/// Contiguous equal-row chunks (ceil(rows/parts) each, last may be short).
/// Always returns at least one range; never more than `parts`.
[[nodiscard]] std::vector<RowRange> equal_row_ranges(std::uint64_t rows, std::size_t parts);

/// nnz-balanced chunks: split points are the row boundaries nearest the
/// multiples of nnz/parts in the row_ptr prefix sum. `row_ptr` must be the
/// CSR row-pointer array (size rows+1, monotone). A single row heavier
/// than nnz/parts gets a chunk of its own; neighbouring chunks may then be
/// empty (callers should skip empty ranges). Takes u32 or u64 binary CRS
/// row pointers.
[[nodiscard]] std::vector<RowRange> balanced_row_ranges(std::span<const std::uint64_t> row_ptr,
                                                        std::size_t parts);
[[nodiscard]] std::vector<RowRange> balanced_row_ranges(std::span<const std::uint32_t> row_ptr,
                                                        std::size_t parts);

/// Load imbalance of a split: max chunk non-zeros / ideal chunk non-zeros
/// (total/parts). 1.0 is perfect; the equal-row split of a matrix with one
/// dense row approaches `parts`. Returns 1.0 for empty matrices.
[[nodiscard]] double partition_imbalance(std::span<const std::uint64_t> row_ptr,
                                         std::span<const RowRange> ranges);
[[nodiscard]] double partition_imbalance(std::span<const std::uint32_t> row_ptr,
                                         std::span<const RowRange> ranges);

}  // namespace dooc::spmv
