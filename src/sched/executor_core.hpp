// Backend-agnostic task lifecycle of the hierarchical scheduler — ONE
// completion-driven state machine shared by the real engine (sched::Engine,
// wall-clock time, storage completion queues), the discrete-event
// simulator (sim::SimEngine, virtual time, modeled flows) and the wire
// backend's coordinator (net::Coordinator, remote daemons that fetch their
// own inputs — it uses fault() after dispatch and reassign() on node loss).
//
//   Waiting ──deps done──▶ Assigned ──next_to_stage──▶ InputsPending
//       InputsPending ──last input landed──▶ Runnable ──take_runnable──▶
//       Running ──finish──▶ Done
//
// The core owns dependency counting, the reader counts of the graph's
// transient arrays (finish() reports an array once its last reader is
// done; the backend frees it), the per-node queues, the local policy
// ordering (Fifo / DataAware / BackAndForth — the Fig. 5 reorder logic)
// and the prefetch window: at most `prefetch_window` tasks with missing
// inputs are staged ahead (their loads in flight), plus up to
// `demand_slots` extra when compute would otherwise idle. Tasks whose
// inputs are already resident never consume the window — this is the
// paper's "the local scheduler makes sure that there are a given number of
// ready tasks whose data are in memory" (§III-C), expressed once for both
// backends.
//
// It also owns the one recovery rule, lineage (arrays are write-once, so
// the graph says how to re-make any of them). An array is *gone* once the
// core released it or a backend reported it lost through rederive(). That
// call re-runs the Done producer of every lost array some unsettled task
// still reads (or that no task lists: a final result), and, recursively,
// the producers of that producer's gone inputs, down to pre-existing
// arrays. Every unsettled reader of a gone array waits on the re-run as a
// dependency, and a re-run's readers count toward its transient inputs
// again, so a re-derived intermediate is reported released once more
// when they are done.
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
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
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
  /// Whether a task's input `i` is read when it runs (lineage follows only
  /// read inputs). Empty: every input of a non-sync task is read — what
  /// the engine stages.
  std::function<bool(const Task&, std::size_t i)> reads;
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
  /// The task is a re-run (rederive()): its outputs were written before,
  /// so the backend invalidates them before the task writes again.
  bool rerun = false;
};

class ExecutorCore {
 public:
  /// `graph` must outlive the core and stay built; `assignment[t]` is the
  /// node of task t (from the global scheduler). A null `probe` reports
  /// every input resident (executors that fetch their own inputs).
  ExecutorCore(const TaskGraph& graph, std::vector<int> assignment, int num_nodes,
               CoreConfig config, ResidencyProbe* probe);

  // ---- introspection ----------------------------------------------------
  // Counts come from the core's own state, never from the graph: a caller
  // may ask after the job retired and its graph was freed.
  [[nodiscard]] std::size_t total() const noexcept { return states_.size(); }
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
  /// Tasks in Running on `node`, in the order they were taken.
  [[nodiscard]] std::vector<TaskId> running(int node) const;

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
  /// Transient arrays (TaskGraph::mark_transient) whose last reader this
  /// was are appended to `released`, when given: nothing in the graph
  /// reads them again until a re-run does (see rederive()). A re-run's
  /// finish wakes the readers that waited on it instead of its graph
  /// successors. Returns true when this finish settled the job
  /// (all_settled(), read under the same lock): exactly one caller sees
  /// it, and once it retires the job the graph may be gone.
  bool finish(TaskId t, std::vector<std::pair<int, TaskId>>& newly_assigned,
              std::vector<std::string>* released = nullptr);

  // ---- fault recovery ----------------------------------------------------
  /// What fault() decided for a task whose input load failed permanently.
  enum class FaultAction {
    Ignored,   ///< stale report (the task was neither InputsPending nor Running)
    Retry,     ///< re-queued to Assigned; the backend should re-stage it
    Poisoned,  ///< retry budget exhausted: task + transitive successors Faulted
  };
  /// Report a permanent input failure of a staged or running task (a
  /// remote executor that resolves inputs itself only learns of it after
  /// dispatch). Retries re-queue the task up to max_task_retries times
  /// (to Waiting while it waits on a re-run, else Assigned); past that the
  /// task and every transitive successor become Faulted (appended to
  /// `poisoned`, the failed task first).
  FaultAction fault(TaskId t, std::vector<TaskId>* poisoned);
  /// Node loss: move every unsettled task assigned to `from` onto
  /// `survivors`, round-robin in task-id order. Waiting tasks only change
  /// node; staged, runnable and running ones are re-queued on their new
  /// node. Re-queues do not use up retries. Returns the tasks that were
  /// Running on `from`; a second call for the same node moves nothing.
  std::vector<TaskId> reassign(int from, const std::vector<int>& survivors);
  /// Lineage recovery: the arrays written at `lost` have no copy left.
  /// Re-queue the Done writer of each one that an unsettled task reads (or
  /// that no task lists), then the Done writers of its gone inputs, and so
  /// on. Unsettled readers of a lost array and the re-run tasks wait on
  /// the re-runs of what they read. Returns the resurrected tasks, each
  /// after the producers it waits on; next_to_stage() flags them `rerun`.
  std::vector<TaskId> rederive(const std::vector<storage::Interval>& lost);

 private:
  struct NodeQueues {
    std::vector<TaskId> assigned;
    std::vector<TaskId> pending;
    std::vector<TaskId> runnable;
    std::vector<TaskId> running;
  };

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> key_static(TaskId t) const;
  [[nodiscard]] bool candidate_resident(int node, TaskId t) const;
  [[nodiscard]] std::uint64_t score(int node, TaskId t) const;
  /// Best index in `list` by policy order (ties keep the earliest entry,
  /// preserving submission order under Fifo). npos when empty.
  [[nodiscard]] std::size_t best_by_policy(int node, const std::vector<TaskId>& list) const;
  void promote_locked(NodeQueues& nq, TaskId t);
  /// Back to Waiting while t waits on a re-run, else to Assigned.
  void requeue_locked(TaskId t);
  /// No copy left: lost and not yet re-derived, or released (a transient
  /// array with no reader left to finish).
  [[nodiscard]] bool gone_locked(const std::string& array) const;
  [[nodiscard]] bool reads_locked(const Task& task, std::size_t i) const;
  [[nodiscard]] bool unsettled_reader_locked(TaskId s, const std::string& array) const;
  void resurrect_locked(TaskId p, std::vector<TaskId>& out);
  /// `reader` waits on the re-run of `producer`.
  void wait_on_locked(TaskId producer, TaskId reader);

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
  std::vector<NodeQueues> nodes_;
  std::unordered_map<std::string, std::size_t> transient_index_;
  /// Per transient array (index into graph_->transient_arrays()): reader
  /// inputs not yet finished.
  std::vector<int> readers_left_;
  /// Per task: the transient array index of each input that reads one.
  std::vector<std::vector<std::size_t>> transient_reads_;
  /// Arrays reported lost by rederive() and not yet re-derived.
  std::set<std::string> lost_;
  /// A resurrected task until its re-run finishes: the readers whose
  /// dependency count it holds, and the reader counts it took on its
  /// transient inputs.
  struct Rerun {
    std::vector<TaskId> waiters;
    std::vector<std::size_t> transient_reads;
  };
  std::unordered_map<TaskId, Rerun> reruns_;
  std::size_t completed_ = 0;
  std::size_t faulted_ = 0;
};

}  // namespace dooc::sched
