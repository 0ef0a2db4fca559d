// Distributed vector helpers for the iterative solvers.
//
// A distributed vector is a family of K single-block arrays (one per grid
// row partition) living in the DOoC storage layer, part u homed on
// owner(u, u). Solvers use these helpers to create immutable iterates,
// gather them, and flush or delete them.
//
// append_orthonormalize() is the out-of-core vector work: it emits the
// Gram-Schmidt orthonormalization of a vector against stored basis vectors
// as dataflow tasks, so basis parts reach the arithmetic as task inputs —
// staged, prefetched and evicted by the engine and the storage layer, on
// the parts' home nodes — instead of as blocking reads on the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/task.hpp"
#include "spmv/block_grid.hpp"

namespace dooc::solver {

/// One orthonormalization w -> v = P w / ||P w||, where P removes the
/// components along basis vectors (basis_base, first..last), applied
/// `passes` times as classical Gram-Schmidt (passes = 2 is CGS2).
struct OrthoSpec {
  std::string w_base;  ///< input parts vector_name(w_base, w_index, u)
  int w_index = 0;
  std::string basis_base;
  int first = 0;  ///< basis window [first, last]
  int last = 0;
  int passes = 2;
  int out_index = 0;   ///< the result is written as (basis_base, out_index)
  std::string prefix;  ///< name prefix of every array the tasks create
  std::int64_t group = 0;  ///< Task::group of the emitted tasks
};

/// Arrays created by append_orthonormalize.
struct OrthoArrays {
  /// Per pass p: the last-first+1 Gram-Schmidt coefficients, reduced over
  /// the parts in the fixed order u = 0..K-1.
  std::vector<std::string> coefficients;
  std::string norm;  ///< one double: ||P w|| after the last pass
  /// Every other array created (partial dots, updated w parts, partial
  /// sums of squares); all marked transient in the graph.
  std::vector<std::string> internal;
  /// Basis vectors per dot/update task: as many parts as fit in a quarter
  /// of the storage memory budget (at least one).
  int panel_width = 0;
};

class DistVectorOps {
 public:
  DistVectorOps(storage::StorageCluster& cluster, const spmv::BlockGrid& grid,
                spmv::BlockOwner owner)
      : cluster_(cluster), grid_(grid), owner_(std::move(owner)) {}

  /// Name of part u of vector (base, index).
  [[nodiscard]] static std::string part_name(const std::string& base, int index, int part) {
    return spmv::BlockGrid::vector_name(base, index, part);
  }

  /// Create vector (base, index) from a functor of the global element index.
  void create(const std::string& base, int index,
              const std::function<double(std::uint64_t)>& value);
  /// Create vector (base, index) from a dense source.
  void create_from(const std::string& base, int index, const std::vector<double>& data);

  /// Gather the whole vector to the caller.
  [[nodiscard]] std::vector<double> gather(const std::string& base, int index);

  /// Append the tasks of `spec` to `graph` and create the arrays they
  /// write. Per pass, per part u (on its home node owner(u, u)):
  ///  * dot tasks, one per basis panel: partial coefficients <w_u, V_{u,i}>;
  ///  * one reduce task (node 0): c_i = sum over u = 0..K-1 in order;
  ///  * update tasks chained panel by panel in ascending i:
  ///    w_u <- w_u - c_i V_{u,i}, one basis vector at a time, so the bits
  ///    do not depend on the panel width.
  /// Then per-part sums of squares, one norm reduce (node 0) and per-part
  /// scale tasks writing (basis_base, out_index). Every sum runs in a
  /// fixed order, so the result is bitwise reproducible for any schedule.
  OrthoArrays append_orthonormalize(sched::TaskGraph& graph, const OrthoSpec& spec);

  /// Read a small array (coefficients, a norm) to the caller.
  [[nodiscard]] std::vector<double> read_values(const std::string& name);

  /// Flush every part to its home scratch file (making it evictable — this
  /// is what lets a long Lanczos basis exceed memory).
  void flush(const std::string& base, int index);
  /// Delete every part.
  void remove(const std::string& base, int index);
  /// Delete arrays by name.
  void remove_arrays(const std::vector<std::string>& names);
  /// True when every part exists in the catalog.
  [[nodiscard]] bool exists(const std::string& base, int index);

  [[nodiscard]] const spmv::BlockGrid& grid() const noexcept { return grid_; }

 private:
  template <typename Fn>
  void for_each_part(const std::string& base, int index, Fn&& fn);

  storage::StorageCluster& cluster_;
  spmv::BlockGrid grid_;
  spmv::BlockOwner owner_;
};

}  // namespace dooc::solver
