// Task and task-graph model of the DOoC hierarchical scheduler (paper
// §III-C): "Each computation takes some data as an input and outputs some
// data. Each data is a complete array that is (or will be) stored within
// the storage layer. The input and output data information is used to
// derive a DAG of the tasks."
//
// We generalize slightly: tasks read/write *intervals* of arrays, and an
// edge is derived wherever a reader's interval overlaps a writer's interval
// on the same array. Validation enforces the storage layer's immutability
// contract statically: no two tasks may write overlapping intervals.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "storage/types.hpp"

namespace dooc::sched {

using TaskId = std::uint32_t;
constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

class TaskContext;

struct Task {
  std::string name;  ///< human-readable ("x_0_1^2"), used in traces/Gantt
  std::string kind;  ///< "load-bearing" category ("multiply", "sum", ...)
  std::vector<storage::Interval> inputs;
  std::vector<storage::Interval> outputs;
  /// Executed by the real backend; absent tasks are treated as no-ops
  /// (useful for pure schedule studies and the DES backend).
  std::function<void(TaskContext&)> work;
  /// Estimated floating point work, for reports and the DES cost model.
  double est_flops = 0.0;
  /// Static ordering metadata for trace output and static policies:
  /// `group` is typically the iteration number, `seq` the position within
  /// the iteration.
  std::int64_t group = 0;
  std::int64_t seq = 0;
  /// Pin the task to a node (-1 = let the global scheduler decide).
  int preferred_node = -1;
};

class TaskGraph {
 public:
  TaskId add(Task task);

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] const Task& task(TaskId id) const { return tasks_[id]; }
  [[nodiscard]] Task& task(TaskId id) { return tasks_[id]; }

  /// Derive dependency edges from interval overlaps and validate:
  /// write-once (no overlapping writers) and acyclicity. Must be called
  /// after the last add() and before querying edges.
  void build();

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] const std::vector<TaskId>& successors(TaskId id) const { return succ_[id]; }
  [[nodiscard]] const std::vector<TaskId>& predecessors(TaskId id) const { return pred_[id]; }
  /// Topological order (stable: ties broken by insertion order).
  [[nodiscard]] const std::vector<TaskId>& topo_order() const { return topo_; }
  /// Which task writes the given interval's block range first byte; returns
  /// kInvalidTask for inputs that pre-exist in storage.
  [[nodiscard]] TaskId writer_of(const storage::Interval& iv) const;

  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Declare `array` internal to this graph: nothing outside it reads the
  /// array once the graph's last reader of it has finished, so an executor
  /// may drop its blocks at that point instead of keeping them until the
  /// caller deletes the array.
  void mark_transient(std::string array) { transient_.push_back(std::move(array)); }
  [[nodiscard]] const std::vector<std::string>& transient_arrays() const noexcept {
    return transient_;
  }

  /// Rewrite every array name in the graph (task inputs/outputs, the
  /// derived writer index and the transient marks) through `fn`. Interval
  /// geometry and edges are untouched — renaming is how the jobs layer
  /// namespaces a job's arrays without rebuilding its graph. Works before
  /// or after build().
  void rename_arrays(const std::function<std::string(const std::string&)>& fn);

 private:
  std::vector<Task> tasks_;
  std::vector<std::vector<TaskId>> succ_;
  std::vector<std::vector<TaskId>> pred_;
  std::vector<TaskId> topo_;
  std::vector<std::string> transient_;
  std::size_t num_edges_ = 0;
  bool built_ = false;

  struct WriteRecord {
    storage::Interval iv;
    TaskId writer;
  };
  // array name -> sorted write records (by offset)
  std::vector<std::pair<std::string, std::vector<WriteRecord>>> writers_;
  [[nodiscard]] const std::vector<WriteRecord>* writers_for(const std::string& array) const;
};

}  // namespace dooc::sched
