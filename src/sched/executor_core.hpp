// Backend-agnostic task lifecycle of the hierarchical scheduler — ONE
// completion-driven state machine shared by the real engine (sched::Engine,
// wall-clock time, storage completion queues) and the discrete-event
// simulator (sim::SimEngine, virtual time, modeled flows).
//
//   Waiting ──deps done──▶ Assigned ──next_to_stage──▶ InputsPending
//       InputsPending ──last input landed──▶ Runnable ──take_runnable──▶
//       Running ──finish──▶ Done
//
// The core owns dependency counting, the per-node queues, the local policy
// ordering (Fifo / DataAware / BackAndForth — the Fig. 5 reorder logic)
// and the prefetch window: at most `prefetch_window` tasks with missing
// inputs are staged ahead (their loads in flight), plus up to
// `demand_slots` extra when compute would otherwise idle. Tasks whose
// inputs are already resident never consume the window — this is the
// paper's "the local scheduler makes sure that there are a given number of
// ready tasks whose data are in memory" (§III-C), expressed once for both
// backends.
//
// What the core does NOT do is touch storage or clocks: backends observe
// residency through a ResidencyProbe, issue their own loads when a task is
// staged, and report input arrival either per-event (note_input — the real
// engine counting storage completions) or by re-probing (refresh — the DES
// after virtual-time flow completions).
//
// Thread-safe: every method takes the internal mutex. The probe is called
// with that mutex held, so probes may take locks of their own (e.g. the
// storage node's) but must never call back into the core.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "sched/policy.hpp"
#include "sched/task.hpp"

namespace dooc::sched {

enum class TaskState : std::uint8_t {
  Waiting,
  Assigned,
  InputsPending,
  Runnable,
  Running,
  Done,
  /// The task's input loads failed permanently and its retry budget is
  /// exhausted (or an ancestor's was): it will never run. Faulted tasks are
  /// *settled* — the engine drains instead of hanging or aborting.
  Faulted,
};

[[nodiscard]] const char* to_string(TaskState s);

/// How a backend exposes data residency to the core's policy ordering.
class ResidencyProbe {
 public:
  virtual ~ResidencyProbe() = default;
  /// Bytes of `task`'s inputs currently resident on `node`.
  [[nodiscard]] virtual std::uint64_t resident_input_bytes(int node, const Task& task) = 0;
  /// True when every input of `task` is resident on `node`.
  [[nodiscard]] virtual bool inputs_resident(int node, const Task& task) = 0;
};

struct CoreConfig {
  LocalPolicy policy = LocalPolicy::DataAware;
  /// Staged-ahead tasks with inputs in flight, per node.
  int prefetch_window = 2;
  /// Extra InputsPending tasks allowed when compute would otherwise idle
  /// (the real engine passes its compute slot count so an idle worker can
  /// always demand-stage something; the DES passes 0 — its old scheduler
  /// never demand-staged beyond the window).
  int demand_slots = 0;
  /// How many times a task whose input load failed permanently is re-queued
  /// (fault() → Assigned) before it is poisoned.
  int max_task_retries = 3;
};

/// Which class of Assigned candidates next_to_stage may return.
enum class StageSelect {
  Resident,  ///< inputs fully resident (stages freely, never uses the window)
  Missing,   ///< inputs missing (bounded by window + idle demand slots)
};

struct StageDecision {
  TaskId task = kInvalidTask;
  /// The policy jumped past the task static order would have run (the
  /// Fig. 5(b) "back and forth" moments). Backends emit the trace instant
  /// themselves — the core knows no clock.
  bool reordered = false;
  TaskId over = kInvalidTask;  ///< the task static order preferred
  bool inputs_resident = false;
};

class ExecutorCore {
 public:
  /// `graph` must outlive the core and stay built; `assignment[t]` is the
  /// node of task t (from the global scheduler).
  ExecutorCore(const TaskGraph& graph, std::vector<int> assignment, int num_nodes,
               CoreConfig config, ResidencyProbe* probe);

  // ---- introspection ----------------------------------------------------
  [[nodiscard]] std::size_t total() const noexcept { return graph_->size(); }
  [[nodiscard]] std::size_t completed() const;
  [[nodiscard]] bool all_done() const;
  /// Every task is Done or Faulted — nothing will ever run again. This is
  /// the graceful-degradation drain condition: equals all_done() while no
  /// task has faulted.
  [[nodiscard]] bool all_settled() const;
  [[nodiscard]] std::vector<TaskId> faulted_tasks() const;
  [[nodiscard]] int retries(TaskId t) const;
  [[nodiscard]] TaskState state(TaskId t) const;
  [[nodiscard]] std::size_t backlog(int node) const;   ///< Assigned count
  [[nodiscard]] std::size_t pending(int node) const;   ///< InputsPending count
  [[nodiscard]] std::size_t runnable(int node) const;
  [[nodiscard]] std::vector<TaskId> pending_tasks(int node) const;

  // ---- staging ----------------------------------------------------------
  /// Pick the best Assigned candidate (policy order) of the requested
  /// residency class and move it to InputsPending. Missing-class picks are
  /// bounded by the window (+ idle demand slots). kInvalidTask when none.
  StageDecision next_to_stage(int node, StageSelect select);
  /// Declare how many input-arrival events the staged task waits for;
  /// 0 promotes it to Runnable immediately.
  void stage(TaskId t, int missing_inputs);
  /// One awaited input landed (storage completion). True when that made
  /// the task Runnable.
  bool note_input(TaskId t);
  /// Re-probe residency (DES path): promote InputsPending tasks whose data
  /// arrived, demote Runnable tasks whose data was evicted back to
  /// Assigned.
  void refresh(int node);

  // ---- running ----------------------------------------------------------
  /// Policy-best Runnable task → Running; kInvalidTask when none.
  TaskId take_runnable(int node);
  /// Task finished: dependents whose last dependency this was become
  /// Assigned and are reported as (node, task) in `newly_assigned`.
  void finish(TaskId t, std::vector<std::pair<int, TaskId>>& newly_assigned);

  // ---- fault recovery ----------------------------------------------------
  /// What fault() decided for a task whose input load failed permanently.
  enum class FaultAction {
    Ignored,   ///< stale report (the task was not InputsPending)
    Retry,     ///< re-queued to Assigned; the backend should re-stage it
    Poisoned,  ///< retry budget exhausted: task + transitive successors Faulted
  };
  /// Report a permanent input-load failure of a staged task. Retries move
  /// the task back to Assigned up to max_task_retries times; past that the
  /// task and every transitive successor become Faulted (appended to
  /// `poisoned`, the failed task first).
  FaultAction fault(TaskId t, std::vector<TaskId>* poisoned);
  /// Lost-block recovery: re-queue a Done producer so it re-derives its
  /// write-once outputs. finish() of the re-run does NOT re-decrement
  /// successor dependencies. False when the task is not currently Done.
  bool resurrect(TaskId t);

 private:
  struct NodeQueues {
    std::vector<TaskId> assigned;
    std::vector<TaskId> pending;
    std::vector<TaskId> runnable;
    int running = 0;
  };

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> key_static(TaskId t) const;
  [[nodiscard]] bool candidate_resident(int node, TaskId t) const;
  [[nodiscard]] std::uint64_t score(int node, TaskId t) const;
  /// Best index in `list` by policy order (ties keep the earliest entry,
  /// preserving submission order under Fifo). npos when empty.
  [[nodiscard]] std::size_t best_by_policy(int node, const std::vector<TaskId>& list) const;
  void promote_locked(NodeQueues& nq, TaskId t);

  const TaskGraph* graph_;
  std::vector<int> assignment_;
  CoreConfig config_;
  ResidencyProbe* probe_;

  void poison_locked(TaskId t, std::vector<TaskId>* poisoned);

  mutable std::mutex mutex_;
  std::vector<TaskState> states_;
  std::vector<int> deps_;
  std::vector<int> missing_;
  std::vector<int> retries_;
  /// Task is a resurrected producer: its next finish() must not re-decrement
  /// successor dependencies (they were counted on the first run).
  std::vector<std::uint8_t> rerun_;
  std::vector<NodeQueues> nodes_;
  std::size_t completed_ = 0;
  std::size_t faulted_ = 0;
};

}  // namespace dooc::sched
