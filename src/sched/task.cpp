#include "sched/task.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "common/error.hpp"

namespace dooc::sched {

TaskId TaskGraph::add(Task task) {
  DOOC_REQUIRE(!built_, "cannot add tasks after build()");
  tasks_.push_back(std::move(task));
  return static_cast<TaskId>(tasks_.size() - 1);
}

const std::vector<TaskGraph::WriteRecord>* TaskGraph::writers_for(const std::string& array) const {
  for (const auto& [name, records] : writers_) {
    if (name == array) return &records;
  }
  return nullptr;
}

TaskId TaskGraph::writer_of(const storage::Interval& iv) const {
  DOOC_REQUIRE(built_, "writer_of() before build()");
  const auto* records = writers_for(iv.array);
  if (records == nullptr) return kInvalidTask;
  for (const auto& r : *records) {
    const bool overlap = r.iv.offset < iv.end() && iv.offset < r.iv.end();
    if (overlap) return r.writer;
  }
  return kInvalidTask;
}

void TaskGraph::rename_arrays(const std::function<std::string(const std::string&)>& fn) {
  for (Task& t : tasks_) {
    for (auto& in : t.inputs) in.array = fn(in.array);
    for (auto& out : t.outputs) out.array = fn(out.array);
  }
  for (auto& [array, records] : writers_) {
    array = fn(array);
    for (auto& r : records) r.iv.array = array;
  }
  for (auto& array : transient_) array = fn(array);
}

void TaskGraph::build() {
  DOOC_REQUIRE(!built_, "build() called twice");
  const std::size_t n = tasks_.size();
  succ_.assign(n, {});
  pred_.assign(n, {});

  // Index all writes per array and detect write-once violations.
  std::map<std::string, std::vector<WriteRecord>> writers;
  for (TaskId t = 0; t < n; ++t) {
    for (const auto& out : tasks_[t].outputs) {
      writers[out.array].push_back(WriteRecord{out, t});
    }
  }
  for (auto& [array, records] : writers) {
    std::sort(records.begin(), records.end(),
              [](const WriteRecord& a, const WriteRecord& b) { return a.iv.offset < b.iv.offset; });
    for (std::size_t i = 1; i < records.size(); ++i) {
      if (records[i - 1].iv.end() > records[i].iv.offset) {
        throw ImmutabilityViolation(
            "tasks '" + tasks_[records[i - 1].writer].name + "' and '" +
            tasks_[records[i].writer].name + "' both write array '" + array +
            "' around offset " + std::to_string(records[i].iv.offset));
      }
    }
    writers_.emplace_back(array, records);
  }

  // Derive edges: reader depends on every writer its interval overlaps.
  for (TaskId t = 0; t < n; ++t) {
    std::vector<TaskId> deps;
    for (const auto& in : tasks_[t].inputs) {
      auto it = writers.find(in.array);
      if (it == writers.end()) continue;
      // records sorted by offset; scan overlapping range
      for (const auto& r : it->second) {
        if (r.iv.offset >= in.end()) break;
        if (r.iv.end() <= in.offset) continue;
        if (r.writer == t) {
          throw InvalidArgument("task '" + tasks_[t].name + "' reads its own output");
        }
        deps.push_back(r.writer);
      }
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    for (TaskId d : deps) {
      pred_[t].push_back(d);
      succ_[d].push_back(t);
      ++num_edges_;
    }
  }

  // Kahn toposort; stable via a min-heap on task id.
  std::vector<std::size_t> indeg(n);
  for (TaskId t = 0; t < n; ++t) indeg[t] = pred_[t].size();
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> frontier;
  for (TaskId t = 0; t < n; ++t)
    if (indeg[t] == 0) frontier.push(t);
  topo_.clear();
  topo_.reserve(n);
  while (!frontier.empty()) {
    const TaskId t = frontier.top();
    frontier.pop();
    topo_.push_back(t);
    for (TaskId s : succ_[t]) {
      if (--indeg[s] == 0) frontier.push(s);
    }
  }
  if (topo_.size() != n) {
    throw InvalidArgument("task graph has a cycle (" + std::to_string(n - topo_.size()) +
                          " tasks unreachable)");
  }
  built_ = true;
}

}  // namespace dooc::sched
