#include "spmv/block_grid.hpp"

#include <cmath>
#include <fstream>

#include "common/error.hpp"
#include "spmv/generator.hpp"

namespace dooc::spmv {

BlockGrid::BlockGrid(std::uint64_t n, int k) : n_(n), k_(k) {
  DOOC_REQUIRE(k > 0 && static_cast<std::uint64_t>(k) <= n, "grid K must be in [1, n]");
}

std::uint64_t BlockGrid::part_begin(int p) const {
  DOOC_REQUIRE(p >= 0 && p <= k_, "partition index out of range");
  // Even spread: the first (n mod k) parts get one extra row.
  const std::uint64_t q = n_ / static_cast<std::uint64_t>(k_);
  const std::uint64_t r = n_ % static_cast<std::uint64_t>(k_);
  const auto up = static_cast<std::uint64_t>(p);
  return q * up + std::min(up, r);
}

std::uint64_t BlockGrid::part_size(int p) const { return part_begin(p + 1) - part_begin(p); }

std::string BlockGrid::matrix_name(int u, int v, const std::string& prefix) {
  return prefix + "_" + std::to_string(u) + "_" + std::to_string(v);
}

std::string BlockGrid::vector_name(const std::string& base, int iteration, int part) {
  return base + std::to_string(iteration) + "_" + std::to_string(part);
}

std::string BlockGrid::partial_name(const std::string& base, int iteration, int u, int v) {
  return base + "p" + std::to_string(iteration) + "_" + std::to_string(u) + "_" +
         std::to_string(v);
}

BlockOwner column_strip_owner(int num_nodes) {
  return [num_nodes](int /*u*/, int v) { return v % num_nodes; };
}

BlockOwner row_strip_owner(int num_nodes) {
  return [num_nodes](int u, int /*v*/) { return u % num_nodes; };
}

BlockOwner square_tile_owner(int num_nodes, int k) {
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(num_nodes))));
  DOOC_REQUIRE(s * s == num_nodes, "square_tile_owner needs a perfect-square node count");
  DOOC_REQUIRE(k % s == 0, "grid K must be a multiple of sqrt(num_nodes)");
  const int tile = k / s;
  return [s, tile](int u, int v) { return (u / tile) * s + (v / tile); };
}

namespace {

/// Write one sub-matrix as a binary CRS file in its owner's scratch
/// directory and import it; returns its size in bytes.
std::uint64_t write_and_import(storage::StorageCluster& cluster, int node,
                               const std::string& name, const CsrMatrix& block) {
  auto& store = cluster.node(node);
  const std::string path = store.scratch_dir() + "/" + name;
  std::vector<std::byte> bytes;
  serialize_csr(block, bytes);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot create sub-matrix file '" + path + "'");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw IoError("short write to '" + path + "'");
  }
  // One block per sub-matrix: the whole file is the transfer unit.
  store.import_file(name, path, bytes.size());
  return bytes.size();
}

}  // namespace

DeployedMatrix deploy_matrix(storage::StorageCluster& cluster, const CsrMatrix& global, int k,
                             const BlockOwner& owner, const std::string& prefix) {
  DOOC_REQUIRE(global.rows == global.cols, "block deployment expects a square matrix");
  const BlockGrid grid(global.rows, k);
  return deploy_generated(
      cluster, grid, owner,
      [&](int u, int v) {
        return extract_block(global, grid.part_begin(u), grid.part_size(u), grid.part_begin(v),
                             grid.part_size(v));
      },
      prefix);
}

DeployedMatrix deploy_generated(storage::StorageCluster& cluster, const BlockGrid& grid,
                                const BlockOwner& owner,
                                const std::function<CsrMatrix(int u, int v)>& generate,
                                const std::string& prefix) {
  DeployedMatrix deployed;
  deployed.grid = grid;
  deployed.prefix = prefix;
  const auto cells = static_cast<std::size_t>(grid.k()) * grid.k();
  deployed.owner.resize(cells);
  deployed.nnz.resize(cells);
  deployed.bytes.resize(cells);
  for (int u = 0; u < grid.k(); ++u) {
    for (int v = 0; v < grid.k(); ++v) {
      const int node = owner(u, v);
      DOOC_REQUIRE(node >= 0 && node < cluster.num_nodes(), "block owner out of range");
      const auto cell = static_cast<std::size_t>(u) * grid.k() + v;
      deployed.owner[cell] = node;
      CsrMatrix block = generate(u, v);
      DOOC_REQUIRE(block.rows == grid.part_size(u) && block.cols == grid.part_size(v),
                   "generated block has wrong dimensions");
      deployed.nnz[cell] = block.nnz();
      deployed.bytes[cell] =
          write_and_import(cluster, node, BlockGrid::matrix_name(u, v, prefix), block);
    }
  }
  return deployed;
}

void create_distributed_vector(storage::StorageCluster& cluster, const BlockGrid& grid,
                               const BlockOwner& owner, const std::string& base, int iteration,
                               const std::function<double(std::uint64_t)>& value) {
  for (int u = 0; u < grid.k(); ++u) {
    const int node = owner(u, u);
    const std::string name = BlockGrid::vector_name(base, iteration, u);
    const std::uint64_t bytes = grid.part_size(u) * sizeof(double);
    auto& store = cluster.node(node);
    store.create_array(name, bytes, bytes);
    auto handle = store.request_write({name, 0, bytes}).get();
    auto span = handle.as<double>();
    const std::uint64_t base_index = grid.part_begin(u);
    for (std::uint64_t i = 0; i < span.size(); ++i) span[i] = value(base_index + i);
    handle.release();  // seal
  }
}

std::vector<double> gather_vector(storage::StorageCluster& cluster, const BlockGrid& grid,
                                  const std::string& base, int iteration) {
  std::vector<double> out(grid.n());
  for (int u = 0; u < grid.k(); ++u) {
    const std::string name = BlockGrid::vector_name(base, iteration, u);
    const std::uint64_t bytes = grid.part_size(u) * sizeof(double);
    auto handle = cluster.node(0).request_read({name, 0, bytes}).get();
    auto span = handle.as<double>();
    std::copy(span.begin(), span.end(), out.begin() + static_cast<std::ptrdiff_t>(grid.part_begin(u)));
  }
  return out;
}

}  // namespace dooc::spmv
