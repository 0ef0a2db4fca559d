// K×K block partitioning of a square matrix and its deployment into the
// distributed storage layer (paper §IV): "the A matrix is partitioned into
// sub-matrices of a K*K square grid ... Each sub-matrix is stored in a
// separate file in binary Compressed Row Storage format."
//
// Each sub-matrix file is imported as a single-block array (the paper's
// sub-matrix is "the smallest unit of data transferred"), named A_u_v by
// grid coordinates. The initial vector is partitioned conformally with the
// row partition into K sub-vector arrays.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "spmv/csr.hpp"
#include "storage/storage_cluster.hpp"

namespace dooc::spmv {

/// Uniform K-way partition of [0, n).
class BlockGrid {
 public:
  BlockGrid() = default;
  BlockGrid(std::uint64_t n, int k);

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] int k() const noexcept { return k_; }

  [[nodiscard]] std::uint64_t part_begin(int p) const;
  [[nodiscard]] std::uint64_t part_size(int p) const;

  /// Canonical array names.
  [[nodiscard]] static std::string matrix_name(int u, int v, const std::string& prefix = "A");
  [[nodiscard]] static std::string vector_name(const std::string& base, int iteration, int part);
  [[nodiscard]] static std::string partial_name(const std::string& base, int iteration, int u,
                                                int v);

 private:
  std::uint64_t n_ = 0;
  int k_ = 0;
};

/// Maps grid block (u, v) to the owning node. The paper's Fig. 5 scenario
/// stores column strips (node i owns A_{*,i}); its testbed experiments give
/// each node a square sub-block of the grid.
using BlockOwner = std::function<int(int u, int v)>;

[[nodiscard]] BlockOwner column_strip_owner(int num_nodes);
[[nodiscard]] BlockOwner row_strip_owner(int num_nodes);
/// Square tiling: requires num_nodes = s*s and k % s == 0; node (i,j) owns
/// the (k/s)×(k/s) tile at (i, j) — the layout of the paper's experiments.
[[nodiscard]] BlockOwner square_tile_owner(int num_nodes, int k);

/// A matrix deployed into the storage layer: grid metadata plus the prefix
/// its sub-matrix arrays were registered under.
struct DeployedMatrix {
  BlockGrid grid;
  std::string prefix = "A";
  std::vector<int> owner;           ///< owner[u * k + v]
  std::vector<std::uint64_t> nnz;   ///< nnz[u * k + v]
  std::vector<std::uint64_t> bytes; ///< raw serialized size per block
  /// On-disk size per block: the codec frame size when the block was stored
  /// encoded, equal to `bytes` when stored raw. This is what a demand load
  /// actually moves over disk/wire.
  std::vector<std::uint64_t> stored;

  [[nodiscard]] int owner_of(int u, int v) const { return owner[static_cast<std::size_t>(u) * grid.k() + v]; }
  [[nodiscard]] std::uint64_t nnz_of(int u, int v) const { return nnz[static_cast<std::size_t>(u) * grid.k() + v]; }
  [[nodiscard]] std::uint64_t bytes_of(int u, int v) const { return bytes[static_cast<std::size_t>(u) * grid.k() + v]; }
  [[nodiscard]] std::uint64_t stored_of(int u, int v) const { return stored[static_cast<std::size_t>(u) * grid.k() + v]; }
  [[nodiscard]] std::string name_of(int u, int v) const { return BlockGrid::matrix_name(u, v, prefix); }
  [[nodiscard]] std::uint64_t total_nnz() const {
    std::uint64_t t = 0;
    for (auto v : nnz) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t t = 0;
    for (auto v : bytes) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_stored_bytes() const {
    std::uint64_t t = 0;
    for (auto v : stored) t += v;
    return t;
  }
  /// Achieved whole-matrix compression ratio (1.0 when everything is raw).
  [[nodiscard]] double compression_ratio() const {
    const auto s = total_stored_bytes();
    return s > 0 ? static_cast<double>(total_bytes()) / static_cast<double>(s) : 1.0;
  }
};

/// Cut `global` into a K×K grid, write each sub-matrix as a binary CRS
/// block to its owner's scratch directory, and import it (single block).
DeployedMatrix deploy_matrix(storage::StorageCluster& cluster, const CsrMatrix& global, int k,
                             const BlockOwner& owner, const std::string& prefix = "A");

/// Same, but sub-matrices come from a generator callback (no global matrix
/// is ever materialized) — how paper-scale matrices are built per node.
DeployedMatrix deploy_generated(storage::StorageCluster& cluster, const BlockGrid& grid,
                                const BlockOwner& owner,
                                const std::function<CsrMatrix(int u, int v)>& generate,
                                const std::string& prefix = "A");

/// Create the K distributed sub-vector arrays `vector_name(base, iter, u)`
/// seeded with `value(global_index)`, part u homed on `owner(u, u)`.
void create_distributed_vector(storage::StorageCluster& cluster, const BlockGrid& grid,
                               const BlockOwner& owner, const std::string& base, int iteration,
                               const std::function<double(std::uint64_t)>& value);

/// Read back a distributed vector into one dense std::vector (for
/// verification and small examples; pulls every part to the caller).
std::vector<double> gather_vector(storage::StorageCluster& cluster, const BlockGrid& grid,
                                  const std::string& base, int iteration);

}  // namespace dooc::spmv
