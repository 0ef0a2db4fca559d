#include "sched/executor_core.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dooc::sched {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

void erase_value(std::vector<TaskId>& v, TaskId t) {
  auto it = std::find(v.begin(), v.end(), t);
  DOOC_CHECK(it != v.end(), "executor core queue is missing a task it must hold");
  v.erase(it);
}
}  // namespace

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::Waiting: return "waiting";
    case TaskState::Assigned: return "assigned";
    case TaskState::InputsPending: return "inputs-pending";
    case TaskState::Runnable: return "runnable";
    case TaskState::Running: return "running";
    case TaskState::Done: return "done";
    case TaskState::Faulted: return "faulted";
  }
  return "?";
}

ExecutorCore::ExecutorCore(const TaskGraph& graph, std::vector<int> assignment, int num_nodes,
                           CoreConfig config, ResidencyProbe* probe)
    : graph_(&graph),
      assignment_(std::move(assignment)),
      config_(config),
      probe_(probe) {
  DOOC_REQUIRE(graph.built(), "executor core needs a built task graph");
  DOOC_REQUIRE(assignment_.size() == graph.size(), "assignment size mismatch");
  DOOC_REQUIRE(probe_ != nullptr, "executor core needs a residency probe");
  states_.assign(graph.size(), TaskState::Waiting);
  deps_.resize(graph.size());
  missing_.assign(graph.size(), 0);
  retries_.assign(graph.size(), 0);
  rerun_.assign(graph.size(), 0);
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (TaskId t = 0; t < graph.size(); ++t) {
    deps_[t] = static_cast<int>(graph.predecessors(t).size());
    if (deps_[t] == 0) {
      states_[t] = TaskState::Assigned;
      nodes_[static_cast<std::size_t>(assignment_[t])].assigned.push_back(t);
    }
  }
}

std::size_t ExecutorCore::completed() const {
  std::lock_guard lock(mutex_);
  return completed_;
}

bool ExecutorCore::all_done() const {
  std::lock_guard lock(mutex_);
  return completed_ == graph_->size();
}

bool ExecutorCore::all_settled() const {
  std::lock_guard lock(mutex_);
  return completed_ + faulted_ == graph_->size();
}

std::vector<TaskId> ExecutorCore::faulted_tasks() const {
  std::lock_guard lock(mutex_);
  std::vector<TaskId> out;
  for (TaskId t = 0; t < states_.size(); ++t) {
    if (states_[t] == TaskState::Faulted) out.push_back(t);
  }
  return out;
}

int ExecutorCore::retries(TaskId t) const {
  std::lock_guard lock(mutex_);
  return retries_[t];
}

TaskState ExecutorCore::state(TaskId t) const {
  std::lock_guard lock(mutex_);
  return states_[t];
}

std::size_t ExecutorCore::backlog(int node) const {
  std::lock_guard lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].assigned.size();
}

std::size_t ExecutorCore::pending(int node) const {
  std::lock_guard lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].pending.size();
}

std::size_t ExecutorCore::runnable(int node) const {
  std::lock_guard lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].runnable.size();
}

std::vector<TaskId> ExecutorCore::pending_tasks(int node) const {
  std::lock_guard lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].pending;
}

std::pair<std::int64_t, std::int64_t> ExecutorCore::key_static(TaskId t) const {
  const Task& task = graph_->task(t);
  std::int64_t seq = task.seq;
  if (config_.policy == LocalPolicy::BackAndForth && (task.group % 2) != 0) seq = -seq;
  return {task.group, seq};
}

bool ExecutorCore::candidate_resident(int node, TaskId t) const {
  const Task& task = graph_->task(t);
  // Sync tasks are barriers — control messages, not transfers.
  if (task.kind == "sync" || task.inputs.empty()) return true;
  return probe_->inputs_resident(node, task);
}

std::uint64_t ExecutorCore::score(int node, TaskId t) const {
  return probe_->resident_input_bytes(node, graph_->task(t));
}

std::size_t ExecutorCore::best_by_policy(int node, const std::vector<TaskId>& list) const {
  if (list.empty()) return kNpos;
  std::size_t best = 0;
  if (config_.policy == LocalPolicy::DataAware) {
    // Highest resident byte count wins; ties by (group, seq).
    std::uint64_t best_score = score(node, list[0]);
    for (std::size_t i = 1; i < list.size(); ++i) {
      const std::uint64_t s = score(node, list[i]);
      if (s > best_score || (s == best_score && key_static(list[i]) < key_static(list[best]))) {
        best = i;
        best_score = s;
      }
    }
  } else {
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (key_static(list[i]) < key_static(list[best])) best = i;
    }
  }
  return best;
}

StageDecision ExecutorCore::next_to_stage(int node, StageSelect select) {
  std::lock_guard lock(mutex_);
  auto& nq = nodes_[static_cast<std::size_t>(node)];
  if (nq.assigned.empty()) return {};
  if (select == StageSelect::Missing) {
    int cap = config_.prefetch_window;
    if (config_.demand_slots > 0) {
      const int busy = nq.running + static_cast<int>(nq.runnable.size()) +
                       static_cast<int>(nq.pending.size());
      cap += std::max(0, config_.demand_slots - busy);
    }
    if (static_cast<int>(nq.pending.size()) >= cap) return {};
  }

  // Policy-best candidate of the requested residency class. Ties keep the
  // earliest entry so Fifo degenerates to submission order.
  const bool want_resident = select == StageSelect::Resident;
  std::size_t best = kNpos;
  std::uint64_t best_score = 0;
  for (std::size_t i = 0; i < nq.assigned.size(); ++i) {
    const TaskId t = nq.assigned[i];
    if (candidate_resident(node, t) != want_resident) continue;
    if (best == kNpos) {
      best = i;
      if (config_.policy == LocalPolicy::DataAware) best_score = score(node, t);
      continue;
    }
    bool better;
    if (config_.policy == LocalPolicy::DataAware) {
      const std::uint64_t s = score(node, t);
      better = s > best_score ||
               (s == best_score && key_static(t) < key_static(nq.assigned[best]));
      if (better) best_score = s;
    } else {
      better = key_static(t) < key_static(nq.assigned[best]);
    }
    if (better) best = i;
  }
  if (best == kNpos) return {};

  StageDecision d;
  d.task = nq.assigned[best];
  d.inputs_resident = want_resident;
  if (config_.policy == LocalPolicy::DataAware) {
    // Did the data-aware policy jump past the static order's choice?
    std::size_t fifo = 0;
    for (std::size_t i = 1; i < nq.assigned.size(); ++i) {
      if (key_static(nq.assigned[i]) < key_static(nq.assigned[fifo])) fifo = i;
    }
    if (nq.assigned[fifo] != d.task) {
      d.reordered = true;
      d.over = nq.assigned[fifo];
    }
  }
  nq.assigned.erase(nq.assigned.begin() + static_cast<std::ptrdiff_t>(best));
  states_[d.task] = TaskState::InputsPending;
  nq.pending.push_back(d.task);
  return d;
}

void ExecutorCore::promote_locked(NodeQueues& nq, TaskId t) {
  erase_value(nq.pending, t);
  states_[t] = TaskState::Runnable;
  nq.runnable.push_back(t);
}

void ExecutorCore::stage(TaskId t, int missing_inputs) {
  std::lock_guard lock(mutex_);
  DOOC_CHECK(states_[t] == TaskState::InputsPending, "stage() on a task that was not staged");
  missing_[t] = missing_inputs;
  if (missing_inputs == 0) {
    promote_locked(nodes_[static_cast<std::size_t>(assignment_[t])], t);
  }
}

bool ExecutorCore::note_input(TaskId t) {
  std::lock_guard lock(mutex_);
  if (states_[t] != TaskState::InputsPending) return false;
  if (--missing_[t] > 0) return false;
  promote_locked(nodes_[static_cast<std::size_t>(assignment_[t])], t);
  return true;
}

void ExecutorCore::refresh(int node) {
  std::lock_guard lock(mutex_);
  auto& nq = nodes_[static_cast<std::size_t>(node)];
  // Promote staged tasks whose data has (virtually) arrived.
  for (std::size_t i = 0; i < nq.pending.size();) {
    const TaskId t = nq.pending[i];
    if (candidate_resident(node, t)) {
      nq.pending.erase(nq.pending.begin() + static_cast<std::ptrdiff_t>(i));
      states_[t] = TaskState::Runnable;
      nq.runnable.push_back(t);
    } else {
      ++i;
    }
  }
  // Demote runnable tasks whose data was evicted while they queued (memory
  // pressure can reclaim an unpinned input between turns).
  for (std::size_t i = 0; i < nq.runnable.size();) {
    const TaskId t = nq.runnable[i];
    if (!candidate_resident(node, t)) {
      nq.runnable.erase(nq.runnable.begin() + static_cast<std::ptrdiff_t>(i));
      states_[t] = TaskState::Assigned;
      missing_[t] = 0;
      nq.assigned.push_back(t);
    } else {
      ++i;
    }
  }
}

TaskId ExecutorCore::take_runnable(int node) {
  std::lock_guard lock(mutex_);
  auto& nq = nodes_[static_cast<std::size_t>(node)];
  const std::size_t best = best_by_policy(node, nq.runnable);
  if (best == kNpos) return kInvalidTask;
  const TaskId t = nq.runnable[best];
  nq.runnable.erase(nq.runnable.begin() + static_cast<std::ptrdiff_t>(best));
  states_[t] = TaskState::Running;
  ++nq.running;
  return t;
}

void ExecutorCore::finish(TaskId t, std::vector<std::pair<int, TaskId>>& newly_assigned) {
  std::lock_guard lock(mutex_);
  DOOC_CHECK(states_[t] == TaskState::Running, "finish() on a task that was not running");
  states_[t] = TaskState::Done;
  --nodes_[static_cast<std::size_t>(assignment_[t])].running;
  ++completed_;
  if (rerun_[t] != 0) {
    // Resurrected producer: its successors' dependencies were decremented on
    // the first run; only the rewritten blocks matter this time.
    rerun_[t] = 0;
    return;
  }
  for (TaskId s : graph_->successors(t)) {
    if (--deps_[s] == 0 && states_[s] == TaskState::Waiting) {
      states_[s] = TaskState::Assigned;
      const int node = assignment_[s];
      nodes_[static_cast<std::size_t>(node)].assigned.push_back(s);
      newly_assigned.emplace_back(node, s);
    }
  }
}

ExecutorCore::FaultAction ExecutorCore::fault(TaskId t, std::vector<TaskId>* poisoned) {
  std::lock_guard lock(mutex_);
  if (states_[t] != TaskState::InputsPending) return FaultAction::Ignored;  // stale report
  auto& nq = nodes_[static_cast<std::size_t>(assignment_[t])];
  erase_value(nq.pending, t);
  missing_[t] = 0;
  if (++retries_[t] <= config_.max_task_retries) {
    states_[t] = TaskState::Assigned;
    nq.assigned.push_back(t);
    return FaultAction::Retry;
  }
  poison_locked(t, poisoned);
  return FaultAction::Poisoned;
}

void ExecutorCore::poison_locked(TaskId t, std::vector<TaskId>* poisoned) {
  // The failed task and every transitive successor will never run: mark
  // them Faulted (settled). Successors of a non-Done task are necessarily
  // still Waiting (their dependencies cannot all be Done), so no queue
  // entries need removing beyond t's own, handled by the caller.
  std::vector<TaskId> stack{t};
  while (!stack.empty()) {
    const TaskId cur = stack.back();
    stack.pop_back();
    if (states_[cur] == TaskState::Faulted) continue;
    states_[cur] = TaskState::Faulted;
    ++faulted_;
    if (poisoned != nullptr) poisoned->push_back(cur);
    for (TaskId s : graph_->successors(cur)) {
      if (states_[s] != TaskState::Done && states_[s] != TaskState::Faulted) stack.push_back(s);
    }
  }
}

bool ExecutorCore::resurrect(TaskId t) {
  std::lock_guard lock(mutex_);
  if (states_[t] != TaskState::Done) return false;
  rerun_[t] = 1;
  states_[t] = TaskState::Assigned;
  --completed_;
  nodes_[static_cast<std::size_t>(assignment_[t])].assigned.push_back(t);
  return true;
}

}  // namespace dooc::sched
