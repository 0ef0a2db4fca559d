#include "spmv/partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dooc::spmv {

std::vector<RowRange> equal_row_ranges(std::uint64_t rows, std::size_t parts) {
  DOOC_REQUIRE(parts > 0, "partitioning needs at least one part");
  const std::uint64_t chunks =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(parts, std::max<std::uint64_t>(rows, 1)));
  const std::uint64_t per = (rows + chunks - 1) / chunks;
  std::vector<RowRange> out;
  out.reserve(chunks);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::uint64_t begin = std::min(rows, c * per);
    const std::uint64_t end = std::min(rows, begin + per);
    out.push_back({begin, end});
    if (end == rows) break;
  }
  return out;
}

namespace {

template <typename Prefix>
std::vector<RowRange> balanced_ranges(std::span<const Prefix> row_ptr, std::size_t parts) {
  DOOC_REQUIRE(!row_ptr.empty(), "row_ptr must have at least the terminating entry");
  DOOC_REQUIRE(parts > 0, "partitioning needs at least one part");
  const std::uint64_t rows = row_ptr.size() - 1;
  if (rows == 0) return {RowRange{0, 0}};
  const std::uint64_t total = row_ptr[rows] - row_ptr[0];
  const auto chunks = static_cast<std::uint64_t>(parts);
  std::vector<RowRange> out;
  out.reserve(parts);
  std::uint64_t begin = 0;
  for (std::uint64_t p = 1; p <= chunks; ++p) {
    std::uint64_t end = rows;
    if (p < chunks) {
      // Row boundary nearest the p-th multiple of total/parts. upper_bound
      // finds the first boundary past the target; the one before it is the
      // last boundary at-or-below. Pick whichever is closer so a fat row
      // lands alone in its own chunk instead of dragging neighbours along.
      const std::uint64_t target =
          row_ptr[0] + total / chunks * p + (total % chunks) * p / chunks;
      const auto it = std::upper_bound(row_ptr.begin(), row_ptr.end(), target);
      auto hi = static_cast<std::uint64_t>(it - row_ptr.begin());
      hi = std::min(hi, rows);
      const std::uint64_t lo = hi - 1;  // row_ptr[0] <= target, so hi >= 1
      const std::uint64_t lo_gap = target - row_ptr[lo];
      const std::uint64_t hi_gap = row_ptr[hi] > target ? row_ptr[hi] - target : 0;
      end = (hi > lo && hi_gap < lo_gap) ? hi : lo;
      end = std::clamp(end, begin, rows);
    }
    out.push_back({begin, end});
    begin = end;
  }
  return out;
}

template <typename Prefix>
double imbalance(std::span<const Prefix> row_ptr, std::span<const RowRange> ranges) {
  if (row_ptr.empty() || ranges.empty()) return 1.0;
  const std::uint64_t rows = row_ptr.size() - 1;
  const std::uint64_t total = row_ptr[rows] - row_ptr[0];
  if (total == 0) return 1.0;
  std::uint64_t worst = 0;
  for (const RowRange& r : ranges) {
    if (r.begin > rows || r.end > rows || r.begin >= r.end) continue;
    worst = std::max<std::uint64_t>(worst, row_ptr[r.end] - row_ptr[r.begin]);
  }
  const double ideal = static_cast<double>(total) / static_cast<double>(ranges.size());
  return ideal > 0 ? static_cast<double>(worst) / ideal : 1.0;
}

}  // namespace

std::vector<RowRange> balanced_row_ranges(std::span<const std::uint64_t> row_ptr,
                                          std::size_t parts) {
  return balanced_ranges(row_ptr, parts);
}

std::vector<RowRange> balanced_row_ranges(std::span<const std::uint32_t> row_ptr,
                                          std::size_t parts) {
  return balanced_ranges(row_ptr, parts);
}

double partition_imbalance(std::span<const std::uint64_t> row_ptr,
                           std::span<const RowRange> ranges) {
  return imbalance(row_ptr, ranges);
}

double partition_imbalance(std::span<const std::uint32_t> row_ptr,
                           std::span<const RowRange> ranges) {
  return imbalance(row_ptr, ranges);
}

}  // namespace dooc::spmv
