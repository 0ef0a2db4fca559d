#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "spmv/block_grid.hpp"
#include "spmv/csr.hpp"
#include "spmv/generator.hpp"
#include "spmv/kernels.hpp"
#include "spmv/partition.hpp"
#include "test_util.hpp"

namespace dooc::spmv {
namespace {

TEST(Csr, ValidateAcceptsWellFormed) {
  CsrMatrix m = generate_laplacian_1d(10);
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.nnz(), 28u);  // 3n - 2
}

TEST(Csr, ValidateRejectsBadStructure) {
  CsrMatrix m = generate_laplacian_1d(4);
  m.col_idx[1] = 9;  // out of range column
  EXPECT_THROW(m.validate(), InvalidArgument);
}

TEST(Csr, SerializeRoundTrip) {
  CsrMatrix m = generate_uniform_gap(50, 70, 3.0, 42);
  m.validate();
  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);
  EXPECT_EQ(bytes.size(), m.serialized_bytes());

  CsrView v = CsrView::from_bytes(bytes);
  EXPECT_EQ(v.rows(), 50u);
  EXPECT_EQ(v.cols(), 70u);
  EXPECT_EQ(v.nnz(), m.nnz());
  CsrMatrix back = materialize(v);
  EXPECT_EQ(back.row_ptr, m.row_ptr);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.values, m.values);
}

TEST(Csr, FromBytesRejectsCorruptHeaders) {
  CsrMatrix m = generate_laplacian_1d(5);
  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);

  auto corrupt = bytes;
  corrupt[0] = std::byte{0};
  EXPECT_THROW(CsrView::from_bytes(corrupt), IoError);

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(CsrView::from_bytes(truncated), IoError);

  EXPECT_THROW(CsrView::from_bytes(std::span<const std::byte>{}), IoError);
}

/// The binary CRS layout at any width pair. serialize_csr always writes
/// the narrowest pair, and a u64 row_ptr needs 2^32 non-zeros, so the wider
/// pairs the reader must accept are assembled here.
std::vector<std::byte> serialize_at_widths(const CsrMatrix& m, CsrWidths w) {
  const auto pad8 = [](std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; };
  const std::uint64_t header[6] = {kCsrMagic,  kEndianProbe, m.rows, m.cols, m.nnz(),
                                   std::uint64_t{w.row_ptr} | std::uint64_t{w.col} << 8};
  std::vector<std::byte> out(sizeof header + pad8((m.rows + 1) * w.row_ptr) +
                             pad8(m.nnz() * w.col) + m.nnz() * 8);
  std::memcpy(out.data(), header, sizeof header);
  std::byte* p = out.data() + sizeof header;
  const auto put = [](std::byte* at, std::uint64_t v, unsigned width) {
    std::memcpy(at, &v, width);  // little-endian: the low bytes
  };
  for (std::uint64_t r = 0; r <= m.rows; ++r) put(p + r * w.row_ptr, m.row_ptr[r], w.row_ptr);
  p += pad8((m.rows + 1) * w.row_ptr);
  for (std::uint64_t k = 0; k < m.nnz(); ++k) put(p + k * w.col, m.col_idx[k], w.col);
  p += pad8(m.nnz() * w.col);
  if (m.nnz() != 0) std::memcpy(p, m.values.data(), m.nnz() * 8);
  return out;
}

constexpr CsrWidths kEveryWidthPair[] = {{4, 2}, {4, 4}, {8, 2}, {8, 4}};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Csr, WidthsAreTheNarrowestThatHoldTheBlock) {
  EXPECT_EQ(csr_widths(65'536, 1), (CsrWidths{4, 2}));
  EXPECT_EQ(csr_widths(65'537, 1), (CsrWidths{4, 4}));
  EXPECT_EQ(csr_widths(1, 0), (CsrWidths{4, 2}));
  // nnz itself is the last row pointer, so u32 holds up to 2^32 - 1.
  EXPECT_EQ(csr_widths(65'536, (1ull << 32) - 1).row_ptr, 4);
  EXPECT_EQ(csr_widths(65'536, 1ull << 32), (CsrWidths{8, 2}));
  EXPECT_EQ(csr_widths(1ull << 40, 1ull << 33), (CsrWidths{8, 4}));
  // The size follows the widths: header, padded u32 row_ptr, padded u16
  // columns, f64 values.
  EXPECT_EQ(csr_serialized_bytes(3, 10, 5), 48u + 16u + 16u + 40u);
  EXPECT_EQ(csr_serialized_bytes(3, 70'000, 5), 48u + 16u + 24u + 40u);
}

TEST(Csr, ColumnBoundaryPicksU16ThenU32) {
  // cols = 65,536 holding column 65,535 stays u16; one more column widens.
  for (const std::uint64_t cols : {65'536ull, 65'537ull}) {
    CsrMatrix m;
    m.rows = 2;
    m.cols = cols;
    m.row_ptr = {0, 2, 3};
    m.col_idx = {0, static_cast<std::uint32_t>(cols - 1), 65'535};
    m.values = {1.5, -2.0, 0.25};
    m.validate();
    std::vector<std::byte> bytes;
    serialize_csr(m, bytes);
    EXPECT_EQ(bytes.size(), m.serialized_bytes());
    const CsrView view = CsrView::from_bytes(bytes);
    EXPECT_EQ(view.widths(), (CsrWidths{4, static_cast<std::uint8_t>(cols == 65'536 ? 2 : 4)}));
    const CsrMatrix back = materialize(view);
    EXPECT_EQ(back.col_idx, m.col_idx) << "cols=" << cols;
    EXPECT_EQ(back.row_ptr, m.row_ptr);
    std::vector<double> x(cols, 0.0);
    x[0] = 2.0;
    x[65'535] = 3.0;
    x[cols - 1] = 4.0;
    std::vector<double> y_ref(2), y(2);
    m.multiply(x, y_ref);
    view.multiply(x, y);
    EXPECT_TRUE(bitwise_equal(y_ref, y)) << "cols=" << cols;
  }
}

TEST(Csr, EmptyMatricesRoundTrip) {
  CsrMatrix none;  // 0 x 0
  none.row_ptr = {0};
  CsrMatrix hollow;  // rows and columns, no entries
  hollow.rows = 3;
  hollow.cols = 5;
  hollow.row_ptr = {0, 0, 0, 0};
  for (const CsrMatrix* m : {&none, &hollow}) {
    std::vector<std::byte> bytes;
    serialize_csr(*m, bytes);
    EXPECT_EQ(bytes.size(), 48u + 8u * ((m->rows + 1 + 1) / 2));
    const CsrView view = CsrView::from_bytes(bytes);
    EXPECT_EQ(view.nnz(), 0u);
    EXPECT_EQ(view.widths(), (CsrWidths{4, 2}));
    const CsrMatrix back = materialize(view);
    EXPECT_EQ(back.row_ptr, m->row_ptr);
    EXPECT_TRUE(back.col_idx.empty());
    std::vector<double> x(m->cols, 1.0), y(m->rows, -1.0);
    view.multiply(x, y);
    for (double v : y) EXPECT_EQ(v, 0.0);
  }
}

TEST(Csr, EveryWidthPairMultipliesBitwiseLikeTheOwningMatrix) {
  const CsrMatrix m = generate_power_law(300, 300, 12.0, 1.5, 0x77);
  const auto x = [&] {
    std::vector<double> v(m.cols);
    SplitMix64 rng(5);
    for (auto& e : v) e = rng.next_double() - 0.5;
    return v;
  }();
  std::vector<double> y_ref(m.rows);
  m.multiply(x, y_ref);
  ThreadPool pool(4);
  KernelConfig eager;
  eager.serial_nnz_threshold = 0;
  for (const CsrWidths w : kEveryWidthPair) {
    const std::vector<std::byte> bytes = serialize_at_widths(m, w);
    const CsrView view = CsrView::from_bytes(bytes);
    const std::string what = "row_ptr u" + std::to_string(8 * w.row_ptr) + ", col_idx u" +
                             std::to_string(8 * w.col);
    ASSERT_EQ(view.widths(), w) << what;
    std::vector<double> serial(m.rows, -1.0), split(m.rows, -1.0), parallel(m.rows, -1.0);
    view.multiply(x, serial);
    view.multiply_rows(x, split, 0, 97);
    view.multiply_rows(x, split, 97, m.rows);
    multiply_parallel(view, x, parallel, pool, eager);
    EXPECT_TRUE(bitwise_equal(y_ref, serial)) << what;
    EXPECT_TRUE(bitwise_equal(y_ref, split)) << what;
    EXPECT_TRUE(bitwise_equal(y_ref, parallel)) << what;
    const CsrMatrix back = materialize(view);
    EXPECT_EQ(back.row_ptr, m.row_ptr) << what;
    EXPECT_EQ(back.col_idx, m.col_idx) << what;
  }
  std::vector<std::byte> narrow;
  serialize_csr(m, narrow);
  EXPECT_EQ(narrow, serialize_at_widths(m, {4, 2})) << "serialize_csr writes the narrowest pair";
}

TEST(Csr, FromBytesRejectsUnknownWidthCodes) {
  const CsrMatrix m = generate_laplacian_1d(6);
  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);
  for (const std::uint64_t code : {0x0ull, 0x0004ull, 0x0203ull, 0x0804ull, 0x0402ull, 0x0104ull,
                                   0x1'0204ull, 0xFF00'0000'0000'0204ull}) {
    auto forged = bytes;
    std::memcpy(forged.data() + 5 * 8, &code, 8);
    EXPECT_THROW(CsrView::from_bytes(forged), IoError) << "width code 0x" << std::hex << code;
  }
}

TEST(Csr, FromBytesRejectsForgedRowPtr) {
  // A row_ptr that runs backwards or past nnz would send multiply_rows
  // beyond `values`; the reader rejects it for both row-pointer widths.
  const CsrMatrix m = generate_uniform_gap(9, 12, 2.0, 3);
  ASSERT_LT(m.row_ptr[3], m.row_ptr[6]);
  const std::uint64_t nnz = m.nnz();
  const std::pair<const char*, std::vector<std::uint64_t>> forgeries[] = {
      {"backwards", [&] { auto rp = m.row_ptr; std::swap(rp[3], rp[6]); return rp; }()},
      {"past nnz mid-array", [&] { auto rp = m.row_ptr; rp[5] = nnz + 100; return rp; }()},
      {"ends short of nnz", [&] { auto rp = m.row_ptr; rp.back() = nnz - 1; return rp; }()},
      {"ends past nnz", [&] { auto rp = m.row_ptr; rp.back() = nnz + 1; return rp; }()},
      {"starts above 0", [&] { auto rp = m.row_ptr; rp.front() = 1; return rp; }()},
  };
  for (const std::uint8_t row_width : {4, 8}) {
    for (const auto& [what, rp] : forgeries) {
      CsrMatrix forged = m;
      forged.row_ptr = rp;
      const auto bytes = serialize_at_widths(forged, {row_width, 2});
      EXPECT_THROW(CsrView::from_bytes(bytes), IoError) << what << ", u" << 8 * row_width;
    }
    EXPECT_NO_THROW(CsrView::from_bytes(serialize_at_widths(m, {row_width, 2})));
  }
}

TEST(Csr, FromBytesNamesTheRetiredLayout) {
  // 'DCRSBIN1' blocks (u64 row_ptr, u32 col_idx, 5-word header) are no
  // longer read; the error says so instead of "bad magic".
  const std::uint64_t old_header[5] = {kRetiredCsrMagic, kEndianProbe, 1, 1, 0};
  std::vector<std::byte> old(sizeof old_header + 16);
  std::memcpy(old.data(), old_header, sizeof old_header);
  try {
    (void)CsrView::from_bytes(old);
    FAIL() << "the retired layout must not parse";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("DCRSBIN1"), std::string::npos) << e.what();
  }
}

TEST(Csr, FromBytesNamesTheRetiredSellLayout) {
  // 'DSELBIN1' blocks (SELL-C-sigma, once a second block format) are
  // rejected by name too, and never read as CRS.
  std::vector<std::byte> block;
  serialize_csr(generate_uniform_gap(16, 16, 2.0, 3), block);
  std::memcpy(block.data(), &kRetiredSellMagic, sizeof kRetiredSellMagic);
  try {
    (void)CsrView::from_bytes(block);
    FAIL() << "the retired layout must not parse";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("DSELBIN1"), std::string::npos) << e.what();
  }
}

TEST(Csr, ViewMultiplyMatchesOwningMultiply) {
  CsrMatrix m = generate_uniform_gap(40, 40, 2.0, 7);
  std::vector<double> x(40), y1(40), y2(40);
  SplitMix64 rng(3);
  for (auto& v : x) v = rng.next_double();
  m.multiply(x, y1);

  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);
  CsrView view = CsrView::from_bytes(bytes);
  view.multiply(x, y2);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Csr, MultiplyRowsSplitsCorrectly) {
  CsrMatrix m = generate_uniform_gap(64, 64, 2.0, 11);
  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);
  CsrView view = CsrView::from_bytes(bytes);
  std::vector<double> x(64, 1.0), whole(64), halves(64);
  view.multiply(x, whole);
  view.multiply_rows(x, halves, 0, 32);
  view.multiply_rows(x, halves, 32, 64);
  EXPECT_EQ(whole, halves);
}

TEST(Generator, UniformGapRespectsGapBounds) {
  const double d = 4.0;
  CsrMatrix m = generate_uniform_gap(100, 1000, d, 99);
  m.validate();
  for (std::uint64_t r = 0; r < m.rows; ++r) {
    for (std::uint64_t k = m.row_ptr[r] + 1; k < m.row_ptr[r + 1]; ++k) {
      const std::uint64_t gap = m.col_idx[k] - m.col_idx[k - 1];
      EXPECT_GE(gap, 1u);
      EXPECT_LE(gap, static_cast<std::uint64_t>(2 * d));
    }
  }
}

TEST(Generator, ChooseGapParameterHitsNnzTarget) {
  const std::uint64_t rows = 500, cols = 5000, target = 50000;
  const double d = choose_gap_parameter(rows, cols, target);
  CsrMatrix m = generate_uniform_gap(rows, cols, d, 1234);
  // Expect within 10% of the target.
  EXPECT_NEAR(static_cast<double>(m.nnz()), static_cast<double>(target),
              0.1 * static_cast<double>(target));
}

TEST(Generator, DeterministicInSeed) {
  CsrMatrix a = generate_uniform_gap(20, 20, 2.0, 5);
  CsrMatrix b = generate_uniform_gap(20, 20, 2.0, 5);
  CsrMatrix c = generate_uniform_gap(20, 20, 2.0, 6);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.values, b.values);
  EXPECT_NE(a.col_idx, c.col_idx);
}

TEST(Generator, BandedIsSymmetricAndDominant) {
  CsrMatrix m = generate_banded(30, 3, 10.0);
  m.validate();
  // Symmetry: entry (i,j) == (j,i).
  auto at = [&](std::uint64_t i, std::uint64_t j) -> double {
    for (std::uint64_t k = m.row_ptr[i]; k < m.row_ptr[i + 1]; ++k) {
      if (m.col_idx[k] == j) return m.values[k];
    }
    return 0.0;
  };
  for (std::uint64_t i = 0; i < 30; ++i) {
    double off = 0;
    for (std::uint64_t j = 0; j < 30; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(at(i, j), at(j, i));
        off += std::abs(at(i, j));
      }
    }
    EXPECT_GT(at(i, i), off) << "not diagonally dominant at row " << i;
  }
}

TEST(Generator, ExtractBlockPreservesEntries) {
  CsrMatrix m = generate_uniform_gap(60, 60, 2.0, 77);
  CsrMatrix blk = extract_block(m, 20, 20, 30, 20);
  blk.validate();
  // Every block entry matches the global one.
  for (std::uint64_t r = 0; r < 20; ++r) {
    for (std::uint64_t k = blk.row_ptr[r]; k < blk.row_ptr[r + 1]; ++k) {
      const std::uint64_t gc = blk.col_idx[k] + 30;
      bool found = false;
      for (std::uint64_t gk = m.row_ptr[20 + r]; gk < m.row_ptr[21 + r]; ++gk) {
        if (m.col_idx[gk] == gc) {
          EXPECT_DOUBLE_EQ(m.values[gk], blk.values[k]);
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(Kernels, VectorOps) {
  std::vector<double> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3, 4}), 5.0);
  axpy(2.0, a, b);
  EXPECT_EQ(b, (std::vector<double>{6, 9, 12}));
  scale(b, 0.5);
  EXPECT_EQ(b, (std::vector<double>{3, 4.5, 6}));
  std::vector<double> c(3);
  copy(a, c);
  EXPECT_EQ(c, a);
}

TEST(Kernels, SumVectorsReduces) {
  std::vector<double> p1{1, 2}, p2{10, 20}, p3{100, 200};
  std::vector<std::span<const double>> parts{p1, p2, p3};
  std::vector<double> out(2);
  sum_vectors(parts, out);
  EXPECT_EQ(out, (std::vector<double>{111, 222}));
}

TEST(Kernels, ParallelMultiplyMatchesSerial) {
  CsrMatrix m = generate_uniform_gap(2000, 2000, 3.0, 13);
  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);
  CsrView view = CsrView::from_bytes(bytes);
  std::vector<double> x(2000), ys(2000), yp(2000);
  SplitMix64 rng(17);
  for (auto& v : x) v = rng.next_double() - 0.5;
  view.multiply(x, ys);
  ThreadPool pool(4);
  multiply_parallel(view, x, yp, pool);
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_DOUBLE_EQ(ys[i], yp[i]);
}

TEST(BlockGrid, PartitionIsEvenAndExhaustive) {
  BlockGrid grid(103, 4);
  std::uint64_t total = 0;
  for (int p = 0; p < 4; ++p) {
    total += grid.part_size(p);
    EXPECT_GE(grid.part_size(p), 103u / 4);
    EXPECT_LE(grid.part_size(p), 103u / 4 + 1);
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(grid.part_begin(0), 0u);
  EXPECT_EQ(grid.part_begin(4), 103u);
}

TEST(BlockGrid, OwnersCoverConfigurations) {
  auto col = column_strip_owner(3);
  EXPECT_EQ(col(0, 2), 2);
  EXPECT_EQ(col(5, 2), 2);
  auto row = row_strip_owner(3);
  EXPECT_EQ(row(2, 0), 2);
  auto tile = square_tile_owner(4, 10);  // 2x2 nodes, 5x5 blocks each
  EXPECT_EQ(tile(0, 0), 0);
  EXPECT_EQ(tile(0, 5), 1);
  EXPECT_EQ(tile(5, 0), 2);
  EXPECT_EQ(tile(9, 9), 3);
  EXPECT_THROW(square_tile_owner(3, 9), InvalidArgument);
  EXPECT_THROW(square_tile_owner(4, 9), InvalidArgument);
}

TEST(BlockGrid, DeployAndGatherRoundTrip) {
  testutil::TempDir dir("deploy");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 64ull << 20;
  storage::StorageCluster cluster(2, cfg);

  CsrMatrix m = generate_uniform_gap(64, 64, 2.0, 21);
  const auto deployed = deploy_matrix(cluster, m, 4, column_strip_owner(2));
  EXPECT_EQ(deployed.grid.k(), 4);
  EXPECT_EQ(deployed.total_nnz(), m.nnz());

  // Every sub-matrix array exists and parses.
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < 4; ++v) {
      const auto name = deployed.name_of(u, v);
      auto meta = cluster.node(0).array_meta(name);
      ASSERT_TRUE(meta.has_value()) << name;
      EXPECT_EQ(meta->home_node, v % 2);
      auto handle = cluster.node(0).request_read({name, 0, meta->size}).get();
      CsrView view = CsrView::from_bytes(handle.bytes());
      EXPECT_EQ(view.rows(), deployed.grid.part_size(u));
      EXPECT_EQ(view.cols(), deployed.grid.part_size(v));
    }
  }

  create_distributed_vector(cluster, deployed.grid, column_strip_owner(2), "x", 0,
                            [](std::uint64_t i) { return static_cast<double>(i); });
  const auto gathered = gather_vector(cluster, deployed.grid, "x", 0);
  ASSERT_EQ(gathered.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(gathered[i], static_cast<double>(i));
}

// ---------------------------------------------------------------------------
// Row partitioning
// ---------------------------------------------------------------------------

void expect_covering(const std::vector<RowRange>& ranges, std::uint64_t rows) {
  std::uint64_t next = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, next);
    EXPECT_LE(r.begin, r.end);
    next = r.end;
  }
  EXPECT_EQ(next, rows);
}

TEST(Partition, EqualRowRangesCoverAllRows) {
  expect_covering(equal_row_ranges(103, 4), 103);
  expect_covering(equal_row_ranges(3, 8), 3);  // more parts than rows
  expect_covering(equal_row_ranges(0, 4), 0);
  EXPECT_LE(equal_row_ranges(103, 4).size(), 4u);
}

TEST(Partition, BalancedRangesCoverAndBalanceSkew) {
  // First 10 rows carry 100 nnz each, the remaining 90 carry none: the
  // equal split serializes on part 0, the balanced split spreads the work.
  std::vector<std::uint64_t> row_ptr(101, 1000);
  for (std::uint64_t r = 0; r <= 10; ++r) row_ptr[r] = r * 100;
  const auto equal = equal_row_ranges(100, 4);
  const auto balanced = balanced_row_ranges(row_ptr, 4);
  expect_covering(balanced, 100);
  const double eq_imb = partition_imbalance(row_ptr, equal);
  const double bal_imb = partition_imbalance(row_ptr, balanced);
  EXPECT_NEAR(eq_imb, 4.0, 1e-12);   // all nnz in part 0
  EXPECT_NEAR(bal_imb, 1.2, 0.21);   // rows are 100-nnz grains of a 250 target
  EXPECT_LT(bal_imb, eq_imb);
}

TEST(Partition, FatRowGetsItsOwnChunk) {
  // One row holds 1000 of 1004 nnz; the balanced split must isolate it.
  std::vector<std::uint64_t> row_ptr{0, 1, 2, 1002, 1003, 1004};
  const auto ranges = balanced_row_ranges(row_ptr, 4);
  expect_covering(ranges, 5);
  bool fat_alone = false;
  for (const auto& r : ranges) {
    if (r.begin <= 2 && 3 <= r.end) fat_alone = (r.size() == 1);
  }
  EXPECT_TRUE(fat_alone) << "row 2 should be a singleton chunk";
}

TEST(Partition, DegenerateInputs) {
  const std::vector<std::uint64_t> empty_ptr{0};
  expect_covering(balanced_row_ranges(empty_ptr, 4), 0);
  EXPECT_DOUBLE_EQ(partition_imbalance(empty_ptr, balanced_row_ranges(empty_ptr, 4)), 1.0);
  // All-empty rows: no nnz to balance, but coverage must hold.
  const std::vector<std::uint64_t> zeros(9, 0);
  expect_covering(balanced_row_ranges(zeros, 3), 8);
}

// ---------------------------------------------------------------------------
// Hostile headers
// ---------------------------------------------------------------------------

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  SplitMix64 rng(seed);
  for (auto& v : x) v = rng.next_double() - 0.5;
  return x;
}

TEST(Csr, FromBytesRejectsOverflowingHeader) {
  // Headers whose implied byte count wraps 64-bit arithmetic used to pass
  // the size check with a tiny `need`; they must throw IoError instead.
  const std::uint64_t evil_sizes[][2] = {
      {std::numeric_limits<std::uint64_t>::max(), 4},           // rows+1 wraps
      {4, std::numeric_limits<std::uint64_t>::max() / 4},       // nnz*8 wraps
      {std::numeric_limits<std::uint64_t>::max() / 8, 4},       // (rows+1)*8 wraps
  };
  for (const auto& [rows, nnz] : evil_sizes) {
    for (const CsrWidths w : kEveryWidthPair) {
      const std::uint64_t header[6] = {kCsrMagic, kEndianProbe, rows, 4, nnz,
                                       std::uint64_t{w.row_ptr} | std::uint64_t{w.col} << 8};
      std::vector<std::byte> evil(sizeof header);
      std::memcpy(evil.data(), header, sizeof header);
      EXPECT_THROW(CsrView::from_bytes(evil), IoError) << "rows=" << rows << " nnz=" << nnz;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel property sweep: every parallel variant against serial CSR
// ---------------------------------------------------------------------------

/// Edge shapes the sweep always includes alongside the random matrices.
std::vector<CsrMatrix> edge_matrices() {
  std::vector<CsrMatrix> out;
  // Empty 16x16 (rows exist, no entries).
  CsrMatrix zero;
  zero.rows = zero.cols = 16;
  zero.row_ptr.assign(17, 0);
  out.push_back(zero);
  // Single dense row among empty ones.
  CsrMatrix fat;
  fat.rows = fat.cols = 32;
  fat.row_ptr.assign(33, 0);
  for (std::uint32_t c = 0; c < 32; ++c) {
    fat.col_idx.push_back(c);
    fat.values.push_back(1.0 / (1.0 + c));
  }
  for (std::uint64_t r = 8; r <= 32; ++r) fat.row_ptr[r] = 32;
  out.push_back(fat);
  // 1x1 with and without an entry.
  CsrMatrix one;
  one.rows = one.cols = 1;
  one.row_ptr = {0, 1};
  one.col_idx = {0};
  one.values = {2.5};
  out.push_back(one);
  CsrMatrix one_empty;
  one_empty.rows = one_empty.cols = 1;
  one_empty.row_ptr = {0, 0};
  out.push_back(one_empty);
  return out;
}

TEST(KernelsParallel, PropertySweepMatchesSerialCsr) {
  std::vector<CsrMatrix> cases = edge_matrices();
  cases.push_back(generate_uniform_gap(257, 257, 2.5, 0x11));
  cases.push_back(generate_power_law(300, 300, 8.0, 1.5, 0x22));
  ThreadPool pool(4);
  KernelConfig eager;  // force the parallel path even for tiny matrices
  eager.serial_nnz_threshold = 0;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const CsrMatrix& m = cases[ci];
    m.validate();
    const auto x = random_vector(m.cols, 0x1000 + ci);
    std::vector<double> y_ref(m.rows);
    m.multiply(x, y_ref);

    std::vector<std::byte> csr_bytes;
    serialize_csr(m, csr_bytes);
    const CsrView view = CsrView::from_bytes(csr_bytes);

    std::vector<double> y(m.rows, -1.0);
    multiply_parallel(view, x, y, pool, eager);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_DOUBLE_EQ(y_ref[i], y[i]) << "case " << ci;
  }
}

TEST(KernelsParallel, SymmetricHalfMatchesSerialReference) {
  const CsrMatrix sym = symmetrize(generate_uniform_gap(200, 200, 3.0, 0x33));
  const CsrMatrix lower = extract_lower_triangle(sym);
  std::vector<std::byte> bytes;
  serialize_csr(lower, bytes);
  const CsrView view = CsrView::from_bytes(bytes);

  const auto x = random_vector(200, 4);
  std::vector<double> y_full(200), y_half(200), y_par(200);
  sym.multiply(x, y_full);
  multiply_symmetric_half(view, x, y_half);

  ThreadPool pool(4);
  KernelConfig cfg;
  cfg.serial_nnz_threshold = 0;
  multiply_symmetric_half_parallel(view, x, y_par, pool, cfg);
  // Parallel partials reassociate the scatter sums: tolerance, not bitwise.
  for (std::size_t i = 0; i < y_par.size(); ++i) {
    EXPECT_NEAR(y_half[i], y_par[i], 1e-12 * (1.0 + std::abs(y_half[i])));
    EXPECT_NEAR(y_full[i], y_par[i], 1e-12 * (1.0 + std::abs(y_full[i])));
  }
}

TEST(KernelsBlas1, PoolVariantsMatchSerial) {
  // Above kBlas1ParallelThreshold so the pool path actually splits.
  const std::size_t n = kBlas1ParallelThreshold + 1234;
  const auto a = random_vector(n, 5);
  const auto b = random_vector(n, 6);
  ThreadPool pool(4);

  const double d_serial = dot(a, b);
  const double d_pool = dot(a, b, pool);
  EXPECT_NEAR(d_serial, d_pool, 1e-10 * (1.0 + std::abs(d_serial)));

  const double n_serial = norm2(a);
  const double n_pool = norm2(a, pool);
  EXPECT_NEAR(n_serial, n_pool, 1e-10 * (1.0 + n_serial));

  auto y_serial = b;
  auto y_pool = b;
  axpy(2.5, a, y_serial);
  axpy(2.5, a, y_pool, pool);
  EXPECT_EQ(y_serial, y_pool);  // element-wise: no reassociation at all

  std::vector<std::span<const double>> parts{a, b};
  std::vector<double> s_serial(n), s_pool(n);
  sum_vectors(parts, s_serial);
  sum_vectors(parts, s_pool, pool);
  EXPECT_EQ(s_serial, s_pool);
}

TEST(KernelsParallel, SerialGateIsOnNnzNotRows) {
  // Many rows but almost no work: with the default config this must take
  // the serial path (and still be correct); with threshold 0 the parallel
  // path must agree bitwise.
  CsrMatrix m;
  m.rows = m.cols = 5000;
  m.row_ptr.assign(5001, 0);
  m.col_idx = {7};
  m.values = {3.0};
  for (std::uint64_t r = 1; r <= 5000; ++r) m.row_ptr[r] = 1;
  std::vector<std::byte> bytes;
  serialize_csr(m, bytes);
  const CsrView view = CsrView::from_bytes(bytes);
  const auto x = random_vector(5000, 7);
  std::vector<double> y_ref(5000), y_default(5000), y_eager(5000);
  m.multiply(x, y_ref);
  ThreadPool pool(4);
  multiply_parallel(view, x, y_default, pool);
  KernelConfig eager;
  eager.serial_nnz_threshold = 0;
  multiply_parallel(view, x, y_eager, pool, eager);
  EXPECT_EQ(y_ref, y_default);
  EXPECT_EQ(y_ref, y_eager);
}

}  // namespace
}  // namespace dooc::spmv
