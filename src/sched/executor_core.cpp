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
  states_.assign(graph.size(), TaskState::Waiting);
  deps_.resize(graph.size());
  missing_.assign(graph.size(), 0);
  retries_.assign(graph.size(), 0);
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (std::size_t i = 0; i < graph.transient_arrays().size(); ++i) {
    transient_index_.emplace(graph.transient_arrays()[i], i);
  }
  readers_left_.assign(graph.transient_arrays().size(), 0);
  transient_reads_.resize(graph.size());
  for (TaskId t = 0; t < graph.size(); ++t) {
    for (const auto& in : graph.task(t).inputs) {
      const auto it = transient_index_.find(in.array);
      if (it == transient_index_.end()) continue;
      transient_reads_[t].push_back(it->second);
      ++readers_left_[it->second];
    }
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
  return completed_ == states_.size();
}

bool ExecutorCore::all_settled() const {
  std::lock_guard lock(mutex_);
  return completed_ + faulted_ == states_.size();
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

std::vector<TaskId> ExecutorCore::running(int node) const {
  std::lock_guard lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].running;
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
  if (task.kind == "sync" || task.inputs.empty() || probe_ == nullptr) return true;
  return probe_->inputs_resident(node, task);
}

std::uint64_t ExecutorCore::score(int node, TaskId t) const {
  return probe_ == nullptr ? 0 : probe_->resident_input_bytes(node, graph_->task(t));
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
      const int busy = static_cast<int>(nq.running.size() + nq.runnable.size() +
                                        nq.pending.size());
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
  d.rerun = !reruns_.empty() && reruns_.count(d.task) != 0;
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
  nq.running.push_back(t);
  return t;
}

bool ExecutorCore::finish(TaskId t, std::vector<std::pair<int, TaskId>>& newly_assigned,
                          std::vector<std::string>* released) {
  std::lock_guard lock(mutex_);
  DOOC_CHECK(states_[t] == TaskState::Running, "finish() on a task that was not running");
  states_[t] = TaskState::Done;
  erase_value(nodes_[static_cast<std::size_t>(assignment_[t])].running, t);
  ++completed_;
  const auto wake = [&](TaskId s) {
    if (--deps_[s] == 0 && states_[s] == TaskState::Waiting) {
      states_[s] = TaskState::Assigned;
      nodes_[static_cast<std::size_t>(assignment_[s])].assigned.push_back(s);
      newly_assigned.emplace_back(assignment_[s], s);
    }
  };
  const auto release = [&](std::size_t a) {
    if (released != nullptr) released->push_back(graph_->transient_arrays()[a]);
  };
  const auto read_done = [&](std::size_t a) {
    if (--readers_left_[a] == 0) release(a);
  };
  const auto rr = reruns_.empty() ? reruns_.end() : reruns_.find(t);
  if (rr != reruns_.end()) {
    // A re-run owes only the readers that waited on it: its graph
    // successors were counted down on the first run.
    const Rerun rerun = std::move(rr->second);
    reruns_.erase(rr);
    for (const storage::Interval& out : graph_->task(t).outputs) {
      lost_.erase(out.array);
      const auto ti = transient_index_.find(out.array);
      if (ti != transient_index_.end() && readers_left_[ti->second] == 0) {
        release(ti->second);  // re-made, but nothing reads it
      }
    }
    for (const TaskId s : rerun.waiters) wake(s);
    for (const std::size_t a : rerun.transient_reads) read_done(a);
  } else {
    for (const TaskId s : graph_->successors(t)) wake(s);
    for (const std::size_t a : transient_reads_[t]) read_done(a);
  }
  if (deps_[t] > 0) {
    // It ran on inputs staged before they were lost: stop waiting.
    deps_[t] = 0;
    for (auto& [p, rerun] : reruns_) std::erase(rerun.waiters, t);
  }
  return completed_ + faulted_ == states_.size();
}

void ExecutorCore::requeue_locked(TaskId t) {
  missing_[t] = 0;
  if (deps_[t] > 0) {
    states_[t] = TaskState::Waiting;  // assigned once the re-runs it waits on finish
    return;
  }
  states_[t] = TaskState::Assigned;
  nodes_[static_cast<std::size_t>(assignment_[t])].assigned.push_back(t);
}

ExecutorCore::FaultAction ExecutorCore::fault(TaskId t, std::vector<TaskId>* poisoned) {
  std::lock_guard lock(mutex_);
  auto& nq = nodes_[static_cast<std::size_t>(assignment_[t])];
  if (states_[t] == TaskState::InputsPending) {
    erase_value(nq.pending, t);
  } else if (states_[t] == TaskState::Running) {
    erase_value(nq.running, t);
  } else {
    return FaultAction::Ignored;  // stale report
  }
  if (++retries_[t] <= config_.max_task_retries) {
    requeue_locked(t);
    return FaultAction::Retry;
  }
  poison_locked(t, poisoned);
  return FaultAction::Poisoned;
}

std::vector<TaskId> ExecutorCore::reassign(int from, const std::vector<int>& survivors) {
  std::lock_guard lock(mutex_);
  DOOC_REQUIRE(!survivors.empty(), "reassign() needs at least one surviving node");
  auto& old_nq = nodes_[static_cast<std::size_t>(from)];
  std::vector<TaskId> was_running;
  std::size_t next = 0;
  for (TaskId t = 0; t < states_.size(); ++t) {
    const TaskState st = states_[t];
    if (assignment_[t] != from || st == TaskState::Done || st == TaskState::Faulted) continue;
    const int to = survivors[next++ % survivors.size()];
    DOOC_REQUIRE(to != from, "reassign() onto the node being vacated");
    assignment_[t] = to;
    switch (st) {
      case TaskState::Waiting: continue;  // queued on `to` once its deps finish
      case TaskState::Assigned: erase_value(old_nq.assigned, t); break;
      case TaskState::InputsPending: erase_value(old_nq.pending, t); break;
      case TaskState::Runnable: erase_value(old_nq.runnable, t); break;
      default:  // Running
        erase_value(old_nq.running, t);
        was_running.push_back(t);
        break;
    }
    requeue_locked(t);
  }
  return was_running;
}

void ExecutorCore::poison_locked(TaskId t, std::vector<TaskId>* poisoned) {
  // The failed task and every task that waits on it will never run: mark
  // them Faulted (settled). Those sit in no queue (Waiting), so no queue
  // entries need removing beyond t's own, handled by the caller. A
  // re-run's reader already staged or running just stops waiting.
  std::vector<TaskId> stack{t};
  while (!stack.empty()) {
    const TaskId cur = stack.back();
    stack.pop_back();
    if (states_[cur] == TaskState::Faulted) continue;
    states_[cur] = TaskState::Faulted;
    ++faulted_;
    if (poisoned != nullptr) poisoned->push_back(cur);
    if (const auto rr = reruns_.find(cur); rr != reruns_.end()) {
      for (const TaskId s : rr->second.waiters) {
        if (states_[s] == TaskState::Waiting) {
          stack.push_back(s);
        } else {
          --deps_[s];
        }
      }
      reruns_.erase(rr);
      continue;
    }
    for (TaskId s : graph_->successors(cur)) {
      if (states_[s] != TaskState::Done && states_[s] != TaskState::Faulted) stack.push_back(s);
    }
  }
}

bool ExecutorCore::gone_locked(const std::string& array) const {
  if (lost_.count(array) != 0) return true;
  const auto ti = transient_index_.find(array);
  return ti != transient_index_.end() && readers_left_[ti->second] == 0;  // released
}

bool ExecutorCore::reads_locked(const Task& task, std::size_t i) const {
  return config_.reads ? config_.reads(task, i) : task.kind != "sync";
}

bool ExecutorCore::unsettled_reader_locked(TaskId s, const std::string& array) const {
  if (states_[s] == TaskState::Done || states_[s] == TaskState::Faulted) return false;
  const Task& task = graph_->task(s);
  for (std::size_t i = 0; i < task.inputs.size(); ++i) {
    if (task.inputs[i].array == array && reads_locked(task, i)) return true;
  }
  return false;
}

void ExecutorCore::wait_on_locked(TaskId producer, TaskId reader) {
  auto& waiters = reruns_.at(producer).waiters;
  if (std::find(waiters.begin(), waiters.end(), reader) != waiters.end()) return;
  waiters.push_back(reader);
  if (deps_[reader]++ == 0 && states_[reader] == TaskState::Assigned) {
    erase_value(nodes_[static_cast<std::size_t>(assignment_[reader])].assigned, reader);
    states_[reader] = TaskState::Waiting;
  }
}

void ExecutorCore::resurrect_locked(TaskId p, std::vector<TaskId>& out) {
  states_[p] = TaskState::Waiting;
  --completed_;
  Rerun& rerun = reruns_[p];
  const Task& task = graph_->task(p);
  for (std::size_t i = 0; i < task.inputs.size(); ++i) {
    const storage::Interval& in = task.inputs[i];
    const bool read = reads_locked(task, i);
    const bool gone = gone_locked(in.array);
    // Re-make a gone input first. p waits on any re-run of what it reads:
    // the re-run rewrites it.
    const TaskId q = read ? graph_->writer_of(in) : kInvalidTask;
    if (q != kInvalidTask && gone && states_[q] == TaskState::Done) resurrect_locked(q, out);
    if (q != kInvalidTask && reruns_.count(q) != 0) wait_on_locked(q, p);
    // The re-run reads its transient inputs again (a gone one it does not
    // read stays released).
    const auto ti = transient_index_.find(in.array);
    if (ti != transient_index_.end() && (!gone || read)) {
      ++readers_left_[ti->second];
      rerun.transient_reads.push_back(ti->second);
    }
  }
  if (deps_[p] == 0) {
    states_[p] = TaskState::Assigned;
    nodes_[static_cast<std::size_t>(assignment_[p])].assigned.push_back(p);
  }
  out.push_back(p);
}

std::vector<TaskId> ExecutorCore::rederive(const std::vector<storage::Interval>& lost) {
  std::lock_guard lock(mutex_);
  std::vector<TaskId> resurrected;
  for (const storage::Interval& iv : lost) lost_.insert(iv.array);
  for (const storage::Interval& iv : lost) {
    const TaskId p = graph_->writer_of(iv);
    if (p == kInvalidTask) continue;  // pre-existing: durable, never re-derived
    const auto& readers = graph_->successors(p);
    if (states_[p] == TaskState::Done) {
      // Needed while an unsettled task reads it, or when no task lists it
      // (a final result the caller gathers).
      const bool listed = std::any_of(readers.begin(), readers.end(), [&](TaskId s) {
        const auto& ins = graph_->task(s).inputs;
        return std::any_of(ins.begin(), ins.end(),
                           [&](const storage::Interval& in) { return in.array == iv.array; });
      });
      const bool read = std::any_of(readers.begin(), readers.end(),
                                    [&](TaskId s) { return unsettled_reader_locked(s, iv.array); });
      if (read || !listed) resurrect_locked(p, resurrected);
    }
    if (reruns_.count(p) == 0) continue;
    for (const TaskId s : readers) {
      if (unsettled_reader_locked(s, iv.array)) wait_on_locked(p, s);
    }
  }
  return resurrected;
}

}  // namespace dooc::sched
