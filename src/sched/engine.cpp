#include "sched/engine.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/log.hpp"
#include "fault/fault_plan.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace dooc::sched {

namespace {

/// Subtract per-field to get the delta of cluster stats over a run.
storage::StorageStats delta(const storage::StorageStats& after, const storage::StorageStats& before) {
  storage::StorageStats d;
  d.disk_reads = after.disk_reads - before.disk_reads;
  d.disk_read_bytes = after.disk_read_bytes - before.disk_read_bytes;
  d.disk_writes = after.disk_writes - before.disk_writes;
  d.disk_write_bytes = after.disk_write_bytes - before.disk_write_bytes;
  d.remote_fetches = after.remote_fetches - before.remote_fetches;
  d.remote_fetch_bytes = after.remote_fetch_bytes - before.remote_fetch_bytes;
  d.remote_flush_bytes = after.remote_flush_bytes - before.remote_flush_bytes;
  d.evictions = after.evictions - before.evictions;
  d.evicted_bytes = after.evicted_bytes - before.evicted_bytes;
  d.lookup_hops = after.lookup_hops - before.lookup_hops;
  d.read_requests = after.read_requests - before.read_requests;
  d.write_requests = after.write_requests - before.write_requests;
  d.prefetch_requests = after.prefetch_requests - before.prefetch_requests;
  d.released_bytes = after.released_bytes - before.released_bytes;
  d.budget_overshoots = after.budget_overshoots - before.budget_overshoots;
  d.disk_read_seconds = after.disk_read_seconds - before.disk_read_seconds;
  d.disk_write_seconds = after.disk_write_seconds - before.disk_write_seconds;
  return d;
}

/// Completion tag layout: | job:16 | task:32 | attempt:4 | input:12 |.
/// The job field routes a completion to its job's core and lets stragglers
/// of a finished (or failed) job be dropped at the queue; the attempt
/// nibble lets the fault path discard completions of a staging that was
/// already torn down by a retry — without it, a straggler read of attempt
/// N could double-count an input of attempt N+1 and promote the task to
/// Runnable with loads still in flight. (Live jobs whose ids collide in
/// the low 16 bits are rejected at submit.)
std::uint64_t make_tag(std::uint32_t job, TaskId t, int attempt, std::size_t input_index) {
  return ((static_cast<std::uint64_t>(job) & 0xFFFFull) << 48) |
         (static_cast<std::uint64_t>(t) << 16) |
         ((static_cast<std::uint64_t>(attempt) & 0xFull) << 12) | (input_index & 0xFFFull);
}

/// what() of a stored exception, for the structured failure summary.
std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

void emit_reorder(int node, const StageDecision& d, std::uint32_t job) {
  // A reorder decision: the data-aware policy jumped past the task static
  // order would have run. These instants are the Fig. 5(b) "back and
  // forth" moments, visible right on the node's timeline.
  obs::Event ev;
  ev.phase = obs::Phase::Instant;
  ev.cat = obs::intern("sched");
  ev.name = obs::intern("reorder");
  ev.pid = node;
  ev.ts_ns = obs::TraceClock::now_ns();
  ev.nargs = 3;
  ev.arg_name[0] = obs::intern("picked");
  ev.arg_val[0] = d.task;
  ev.arg_name[1] = obs::intern("over");
  ev.arg_val[1] = d.over;
  ev.arg_name[2] = obs::intern("job");
  ev.arg_val[2] = job;
  obs::TraceSession::instance().emit(ev);
}

}  // namespace

std::string FaultSummary::to_text() const {
  std::string out = "fault summary: " + std::to_string(failed.size()) + " failed, " +
                    std::to_string(poisoned) + " poisoned, " + std::to_string(load_faults) +
                    " load fault(s), " + std::to_string(task_retries) + " task retry(ies), " +
                    std::to_string(producer_reruns) + " producer rerun(s)";
  for (const FaultRecord& r : failed) {
    out += "\n  task " + std::to_string(r.task) + " '" + r.name + "' on node " +
           std::to_string(r.node) + " after " + std::to_string(r.retries) +
           " retry(ies): " + r.error;
  }
  return out;
}

/// Handles a staged task carries while it is InputsPending: the slots its
/// read completions fill, plus what the trace needs to know about the wait.
struct Engine::Staged {
  std::vector<storage::ReadHandle> inputs;
  std::vector<std::uint8_t> missing;    ///< per-input: non-resident at stage
  std::uint64_t missing_bytes = 0;      ///< at stage time
  bool resident_at_stage = true;
  std::uint64_t stage_ts_ns = 0;        ///< InputsPending span start
};

/// One submitted job: its graph, assignment, ExecutorCore and accounting.
/// Shared between the job table and the workers touching it; the comments
/// name the lock guarding each field.
struct Engine::JobRun {
  std::uint32_t id = 0;
  double weight = 1.0;
  int priority = 0;
  TaskGraph* graph = nullptr;
  std::vector<int> assignment;
  std::unique_ptr<ExecutorCore> core;
  Stopwatch clock;                       ///< started at submit
  storage::StorageStats stats_before;
  FaultSummary faults;                   ///< fault_mutex_
  std::vector<TraceEvent> trace;         ///< trace_mutex_
  std::atomic<bool> failed{false};
  std::exception_ptr error;              ///< jobs_mutex_
  bool retired = false;                  ///< jobs_mutex_
  bool done = false;                     ///< jobs_mutex_
  Report report;                         ///< jobs_mutex_ until done
  obs::Counter* m_tasks_done = nullptr;  ///< jobs.tasks_done, keyed by job id
};

struct Engine::NodeState {
  int node = -1;
  std::mutex mutex;
  std::condition_variable cv;
  /// Bumped under `mutex` by every wake source (completion-queue notifier,
  /// complete(), wake_all()) so waits never miss an edge.
  std::uint64_t wake_seq = 0;
  /// Staged inputs, keyed by (job << 32 | task) — per-job task namespaces.
  std::unordered_map<std::uint64_t, Staged> staged;
  /// Round-robin cursor over equal-priority jobs (compute fairness).
  std::uint64_t rr = 0;
  /// Tag→job routing cache for drain_completions, refreshed from the job
  /// table when jobs_version_ moves.
  std::unordered_map<std::uint16_t, JobPtr> job_cache;
  std::uint64_t job_cache_version = static_cast<std::uint64_t>(-1);
  obs::Histogram* m_wait = nullptr;     ///< sched.inputs_pending_us
  obs::Counter* m_parked = nullptr;     ///< sched.tasks_parked
  obs::Gauge* m_cq_depth = nullptr;     ///< sched.completion_queue_depth
  obs::Counter* m_load_faults = nullptr;     ///< sched.load_faults
  obs::Counter* m_task_retries = nullptr;    ///< sched.task_retries
  obs::Counter* m_producer_reruns = nullptr; ///< sched.producer_reruns
  obs::Counter* m_tasks_exec = nullptr;      ///< sched.tasks_executed
  obs::Histogram* m_exec_us = nullptr;       ///< sched.exec_us (task body only)
};

/// ExecutorCore's view of this engine's storage residency.
class Engine::Probe final : public ResidencyProbe {
 public:
  explicit Probe(storage::StorageCluster& cluster) : cluster_(&cluster) {}

  std::uint64_t resident_input_bytes(int node, const Task& task) override {
    std::uint64_t resident = 0;
    auto& storage_node = cluster_->node(node);
    for (const auto& in : task.inputs) {
      if (storage_node.is_resident(in)) resident += in.length;
    }
    return resident;
  }

  bool inputs_resident(int node, const Task& task) override {
    auto& storage_node = cluster_->node(node);
    for (const auto& in : task.inputs) {
      if (!storage_node.is_resident(in)) return false;
    }
    return true;
  }

 private:
  storage::StorageCluster* cluster_;
};

Engine::Engine(storage::StorageCluster& cluster, EngineConfig config)
    : cluster_(cluster),
      config_(std::move(config)),
      fault_tolerant_(cluster_.fault_plan() != nullptr) {
  DOOC_REQUIRE(config_.compute_slots_per_node > 0, "need at least one compute slot per node");
  DOOC_REQUIRE(config_.split_threads_per_node > 0, "need at least one split thread per node");
  split_pools_.reserve(static_cast<std::size_t>(cluster_.num_nodes()));
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    split_pools_.push_back(
        std::make_unique<ThreadPool>(static_cast<std::size_t>(config_.split_threads_per_node)));
  }
  probe_ = std::make_unique<Probe>(cluster_);
}

Engine::~Engine() {
  // Stop the telemetry sampler first: its final sample still sees the
  // registry (a leaked singleton), but must not observe a half-torn engine.
  telemetry_.reset();
  shutdown_.store(true);
  wake_all();
  for (auto& w : workers_) w.join();
  // Close the queues before tearing down per-job state: completions of
  // still-in-flight reads (an abandoned job's stragglers) drop their
  // payloads at the queue boundary instead of touching freed engine state.
  if (started_) {
    for (int n = 0; n < cluster_.num_nodes(); ++n) {
      cluster_.node(n).completions().close();
    }
  }
  // Destroying NodeStates releases read pins a staged-but-never-run task
  // still holds (abandoned jobs).
  node_states_.clear();
}

std::uint32_t Engine::reserve_job_id() { return next_job_id_.fetch_add(1); }

void Engine::set_on_job_done(std::function<void(std::uint32_t)> cb) {
  std::unique_lock lock(jobs_mutex_);
  on_job_done_ = std::move(cb);
  jobs_cv_.wait(lock, [&] { return on_job_done_running_ == 0; });
}

void Engine::ensure_started() {
  std::lock_guard start(start_mutex_);
  if (started_) return;
  auto& metrics = obs::Metrics::instance();
  node_states_.clear();
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    auto ns = std::make_unique<NodeState>();
    ns->node = n;
    ns->m_wait = &metrics.histogram("sched.inputs_pending_us", n);
    ns->m_parked = &metrics.counter("sched.tasks_parked", n);
    ns->m_cq_depth = &metrics.gauge("sched.completion_queue_depth", n);
    ns->m_load_faults = &metrics.counter("sched.load_faults", n);
    ns->m_task_retries = &metrics.counter("sched.task_retries", n);
    ns->m_producer_reruns = &metrics.counter("sched.producer_reruns", n);
    ns->m_tasks_exec = &metrics.counter("sched.tasks_executed", n);
    ns->m_exec_us = &metrics.histogram("sched.exec_us", n);
    node_states_.push_back(std::move(ns));
  }
  for (auto& ns : node_states_) {
    NodeState* state = ns.get();
    cluster_.node(state->node).completions().open([state] {
      {
        std::lock_guard lock(state->mutex);
        ++state->wake_seq;
      }
      state->cv.notify_all();
    });
  }
  workers_.reserve(node_states_.size() * static_cast<std::size_t>(config_.compute_slots_per_node));
  for (auto& ns : node_states_) {
    NodeState* state = ns.get();
    for (int slot = 0; slot < config_.compute_slots_per_node; ++slot) {
      workers_.emplace_back([this, state, slot] { worker_loop(*state, slot); });
    }
  }
  // Opt-in live telemetry for the in-process backend: one sampler thread
  // snapshots the registry per node on the configured cadence and runs
  // the health watchdog over its own hub.
  if (const auto tcfg = obs::telemetry::TelemetryConfig::from_env(); tcfg.enabled) {
    telemetry_ = std::make_unique<obs::telemetry::LocalTelemetry>(
        tcfg, cluster_.num_nodes(), "engine");
  }
  started_ = true;
}

std::uint32_t Engine::submit(TaskGraph& graph, SubmitOptions options) {
  DOOC_REQUIRE(graph.built(), "submit() needs a built task graph");
  DOOC_REQUIRE(options.weight > 0.0, "job weight must be positive");
  const std::uint32_t id = options.job != 0 ? options.job : reserve_job_id();

  auto jr = std::make_shared<JobRun>();
  jr->id = id;
  jr->weight = options.weight;
  jr->priority = options.priority;
  jr->graph = &graph;
  jr->stats_before = cluster_.total_stats();

  GlobalScheduler global(cluster_.num_nodes(), config_.global_policy);
  CatalogLocator locator(&cluster_.catalog());
  jr->assignment = global.assign(graph, locator);

  CoreConfig core_config;
  core_config.policy = config_.local_policy;
  core_config.prefetch_window = config_.prefetch_window;
  // An idle compute slot may always demand-stage something even with the
  // window exhausted, else the node deadlocks idle.
  core_config.demand_slots = config_.compute_slots_per_node;
  jr->core = std::make_unique<ExecutorCore>(graph, jr->assignment, cluster_.num_nodes(),
                                            core_config, probe_.get());

  auto& metrics = obs::Metrics::instance();
  jr->m_tasks_done = &metrics.counter("jobs.tasks_done", static_cast<int>(id));

  // The job id is the storage tenant: every read the job issues is
  // arbitrated under this weight/priority.
  cluster_.set_tenant(id, jr->weight, jr->priority);

  ensure_started();

  // Start the clock before the job is published: from then on a worker
  // may pick its tasks and read the clock.
  jr->clock.restart();
  {
    std::lock_guard lock(jobs_mutex_);
    const auto tag16 = static_cast<std::uint16_t>(id & 0xFFFF);
    DOOC_REQUIRE(jobs_.find(id) == jobs_.end(), "duplicate live job id");
    DOOC_REQUIRE(jobs_by_tag_.find(tag16) == jobs_by_tag_.end(),
                 "job id collides with a live job in the low 16 bits");
    jobs_.emplace(id, jr);
    jobs_by_tag_.emplace(tag16, jr);
    ++jobs_version_;
  }
  metrics.counter("jobs.submitted", -1).add();

  if (jr->core->all_settled()) {
    // Empty graph: nothing will ever call complete() — settle it here.
    retire_job(jr);
  } else {
    wake_all();
  }
  return id;
}

Report Engine::await(std::uint32_t job) {
  JobPtr jr;
  {
    std::unique_lock lock(jobs_mutex_);
    auto it = jobs_.find(job);
    DOOC_REQUIRE(it != jobs_.end(), "await() of an unknown or already-awaited job");
    jr = it->second;
    jobs_cv_.wait(lock, [&] { return jr->done; });
    jobs_.erase(job);
    ++jobs_version_;
  }
  if (jr->error) std::rethrow_exception(jr->error);
  return std::move(jr->report);
}

bool Engine::finished(std::uint32_t job) {
  std::lock_guard lock(jobs_mutex_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return true;  // already reaped
  return it->second->done;
}

Report Engine::run(TaskGraph& graph) {
  const std::uint32_t id = submit(graph);
  return await(id);
}

std::vector<Engine::JobPtr> Engine::job_snapshot(std::uint64_t rotate) {
  std::vector<JobPtr> out;
  {
    std::lock_guard lock(jobs_mutex_);
    out.reserve(jobs_.size());
    for (auto& [id, jr] : jobs_) {
      if (!jr->done && !jr->retired && !jr->failed.load()) out.push_back(jr);
    }
  }
  std::sort(out.begin(), out.end(), [](const JobPtr& a, const JobPtr& b) {
    if (a->priority != b->priority) return a->priority > b->priority;
    return a->id < b->id;
  });
  // Rotate within the top priority tier only: strict priority between
  // tiers, round-robin fairness inside one.
  if (out.size() > 1) {
    std::size_t tier = 1;
    while (tier < out.size() && out[tier]->priority == out[0]->priority) ++tier;
    if (tier > 1) {
      std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(rotate % tier),
                  out.begin() + static_cast<std::ptrdiff_t>(tier));
    }
  }
  return out;
}

void Engine::wake_all() {
  for (auto& ns : node_states_) {
    {
      std::lock_guard lock(ns->mutex);
      ++ns->wake_seq;
    }
    ns->cv.notify_all();
  }
}

void Engine::notify_nodes(std::vector<int>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const int node : nodes) {
    NodeState& other = *node_states_[static_cast<std::size_t>(node)];
    {
      std::lock_guard lock(other.mutex);
      ++other.wake_seq;
    }
    other.cv.notify_all();
  }
  nodes.clear();
}

void Engine::drain_completions(NodeState& ns, std::vector<int>& wakes,
                               std::vector<JobPtr>& failures, std::vector<JobPtr>& settled) {
  auto& queue = cluster_.node(ns.node).completions();
  if (ns.m_cq_depth != nullptr) ns.m_cq_depth->set(static_cast<double>(queue.depth()));
  const bool tracing = obs::trace_enabled();
  if (ns.job_cache_version != jobs_version_.load()) {
    std::lock_guard lock(jobs_mutex_);
    ns.job_cache = jobs_by_tag_;
    ns.job_cache_version = jobs_version_.load();
  }
  storage::Completion c;
  while (queue.pop(c)) {
    const auto tag16 = static_cast<std::uint16_t>(c.tag >> 48);
    auto jit = ns.job_cache.find(tag16);
    if (jit == ns.job_cache.end()) continue;  // finished job's straggler; pin drops here
    const JobPtr& jr = jit->second;
    const auto t = static_cast<TaskId>((c.tag >> 16) & 0xFFFFFFFFull);
    if (jr->failed.load()) {
      // The job died between issue and completion: drop the payload and
      // any staged shell the failure sweep may have missed.
      ns.staged.erase(staged_key(jr->id, t));
      continue;
    }
    // Straggler from a staging the fault path already tore down: dropping
    // it releases its pin at the queue boundary; counting it would corrupt
    // the current attempt's input accounting.
    if (fault_tolerant_ &&
        static_cast<int>((c.tag >> 12) & 0xFull) != (jr->core->retries(t) & 0xF)) {
      continue;
    }
    if (c.error) {
      if (!fault_tolerant_) {
        // Legacy plan-less behaviour, scoped to the owning job: the first
        // storage error fails that job (and only that job).
        jr->error = jr->error ? jr->error : c.error;  // jobs_mutex_-free: fail_job re-records
        failures.push_back(jr);
        continue;
      }
      handle_load_fault(ns, jr, t, c.error, wakes, settled);
      continue;
    }
    auto it = ns.staged.find(staged_key(jr->id, t));
    if (it == ns.staged.end()) continue;
    Staged& st = it->second;
    const auto idx = static_cast<std::size_t>(c.tag & 0xFFFull);
    if (idx < st.inputs.size()) st.inputs[idx] = std::move(c.read);
    if (jr->core->note_input(t) && !st.resident_at_stage) {
      // The InputsPending wait is over: the span from stage to last input.
      const std::uint64_t now = obs::TraceClock::now_ns();
      const std::uint64_t dur = now - st.stage_ts_ns;
      if (ns.m_wait != nullptr) ns.m_wait->add(static_cast<double>(dur) / 1e3);
      if (tracing) {
        obs::Event ev;
        ev.phase = obs::Phase::Complete;
        ev.cat = obs::intern("sched");
        ev.name = obs::intern("inputs-pending");
        ev.pid = ns.node;
        // Parked tasks are not bound to a worker thread, so they render on
        // their own lane band rather than a compute lane.
        ev.tid = 200 + static_cast<std::int32_t>(t % 16);
        ev.ts_ns = st.stage_ts_ns;
        ev.dur_ns = dur;
        ev.nargs = 3;
        ev.arg_name[0] = obs::intern("group");
        ev.arg_val[0] = static_cast<std::uint64_t>(jr->graph->task(t).group);
        ev.arg_name[1] = obs::intern("missing_bytes");
        ev.arg_val[1] = st.missing_bytes;
        ev.arg_name[2] = obs::intern("job");
        ev.arg_val[2] = jr->id;
        obs::TraceSession::instance().emit(ev);
        // Close each missing input's load flow on the waiting task: the
        // 'f' point carries the consumer task id, which is how the causal
        // graph knows which load gated which task.
        const Task& task = jr->graph->task(t);
        for (std::size_t i = 0; i < task.inputs.size() && i < st.missing.size(); ++i) {
          if (st.missing[i] == 0) continue;
          obs::emit_flow(obs::Phase::FlowEnd, obs::intern("load"), obs::intern("load-ready"),
                         ns.node, ev.tid, now,
                         obs::causal::flow_id_load(task.inputs[i].array, task.inputs[i].offset),
                         obs::intern("task"), t, obs::intern("job"), jr->id);
        }
      }
    }
  }
}

void Engine::handle_load_fault(NodeState& ns, const JobPtr& jr, TaskId t,
                               const std::exception_ptr& err, std::vector<int>& wakes,
                               std::vector<JobPtr>& settled) {
  if (ns.m_load_faults != nullptr) ns.m_load_faults->add();
  {
    std::lock_guard flock(fault_mutex_);
    ++jr->faults.load_faults;
  }
  if (obs::trace_enabled()) {
    obs::emit_instant(obs::intern("fault"), obs::intern("load-failed"), ns.node, 0);
  }
  // A load only fails permanently once the I/O filters exhausted the
  // retry/backoff policy, so first check whether an input is genuinely
  // *lost* (its only copies on downed nodes, nothing durable) and re-derive
  // it by re-running the Done producer before this task retries.
  maybe_resurrect_producers(ns, jr, t, wakes);
  std::vector<TaskId> poisoned;
  const ExecutorCore::FaultAction action = jr->core->fault(t, &poisoned);
  if (action == ExecutorCore::FaultAction::Ignored) return;
  // Drop the partial staging: surviving read handles release their pins.
  ns.staged.erase(staged_key(jr->id, t));
  if (action == ExecutorCore::FaultAction::Retry) {
    if (ns.m_task_retries != nullptr) ns.m_task_retries->add();
    std::lock_guard flock(fault_mutex_);
    ++jr->faults.task_retries;
    return;
  }
  // Poisoned: this task and its transitive successors will never run. The
  // job keeps draining everything else — graceful degradation, not abort.
  FaultRecord rec;
  rec.task = t;
  rec.name = jr->graph->task(t).name;
  rec.node = ns.node;
  rec.retries = jr->core->retries(t) - 1;
  rec.error = describe(err);
  DOOC_LOG(Warn, "engine") << "job " << jr->id << " task " << t << " '" << rec.name
                           << "' poisoned after " << rec.retries << " retries: " << rec.error;
  {
    std::lock_guard flock(fault_mutex_);
    jr->faults.failed.push_back(std::move(rec));
    jr->faults.poisoned += poisoned.empty() ? 0 : poisoned.size() - 1;
  }
  if (obs::trace_enabled()) {
    obs::emit_instant(obs::intern("fault"), obs::intern("task-poisoned"), ns.node, 0);
  }
  if (jr->core->all_settled()) {
    // Poisoning settled the job: the usual settle point lives in
    // complete(), which a poisoned task never reaches, so queue the
    // retirement here (the caller runs it once ns.mutex is released) and
    // fan the wake out so parked workers drop the job from their
    // snapshots.
    settled.push_back(jr);
    for (int n = 0; n < cluster_.num_nodes(); ++n) wakes.push_back(n);
  }
}

void Engine::maybe_resurrect_producers(NodeState& ns, const JobPtr& jr, TaskId t,
                                       std::vector<int>& wakes) {
  const Task& task = jr->graph->task(t);
  for (const auto& in : task.inputs) {
    const TaskId p = jr->graph->writer_of(in);
    if (p == kInvalidTask) continue;                       // pre-existing input
    if (jr->core->state(p) != TaskState::Done) continue;   // queued / rerunning / poisoned
    if (!block_lost(in)) continue;                         // still reachable: plain retry suffices
    // Forget *every* output block of the producer, not just the lost one —
    // the arrays are write-once, so a partial rewrite would trip
    // immutability on the surviving blocks.
    if (!forget_outputs(jr, p)) continue;  // some block still live → not actually lost
    if (!jr->core->resurrect(p)) continue;
    if (ns.m_producer_reruns != nullptr) ns.m_producer_reruns->add();
    {
      std::lock_guard flock(fault_mutex_);
      ++jr->faults.producer_reruns;
    }
    DOOC_LOG(Warn, "engine") << "re-running task " << p << " to re-derive lost block(s) of '"
                             << in.array << "'";
    if (obs::trace_enabled()) {
      obs::emit_instant(obs::intern("fault"), obs::intern("producer-rerun"), jr->assignment[p], 0);
    }
    wakes.push_back(jr->assignment[p]);
  }
}

bool Engine::block_lost(const storage::Interval& in) const {
  const fault::FaultPlan* plan = cluster_.fault_plan().get();
  auto& shard = cluster_.catalog().shard_for(in.array);
  const std::optional<storage::ArrayMeta> meta = shard.find(in.array);
  if (!meta || meta->block_size == 0) return false;
  const storage::BlockInfo info =
      shard.block_info(storage::BlockKey{in.array, in.offset / meta->block_size});
  // Durable blocks are never lost: the scratch file outlives the node
  // process (the paper's shared GPFS tier), so a demand read or the
  // home-down failover path can always re-load them.
  if (info.durable) return false;
  const auto up = [plan](int node) { return plan == nullptr || !plan->node_down(node); };
  for (const int holder : info.holders) {
    if (up(holder)) return false;  // a live in-memory copy exists
  }
  return true;
}

bool Engine::forget_outputs(const JobPtr& jr, TaskId p) {
  const Task& task = jr->graph->task(p);
  for (const auto& out : task.outputs) {
    auto& shard = cluster_.catalog().shard_for(out.array);
    const std::optional<storage::ArrayMeta> meta = shard.find(out.array);
    if (!meta || meta->block_size == 0) continue;
    const std::uint64_t first = out.offset / meta->block_size;
    const std::uint64_t last = out.length == 0 ? first : (out.end() - 1) / meta->block_size;
    for (std::uint64_t b = first; b <= last; ++b) {
      // forget_block purges *every* node's copy and resets the block's
      // heat, so a resurrected producer can never race a stale replica
      // serving pre-fault bytes (the write-once coherence story's one
      // invalidation point).
      if (!cluster_.forget_block(storage::BlockKey{out.array, b})) return false;
      if (obs::trace_enabled()) {
        obs::emit_instant(obs::intern("replication"), obs::intern("invalidate"), jr->assignment[p],
                          static_cast<int>(b));
      }
    }
  }
  return true;
}

void Engine::stage_tasks(NodeState& ns, std::unique_lock<std::mutex>& lock,
                         const std::vector<JobPtr>& jobs) {
  auto& storage_node = cluster_.node(ns.node);
  const bool tracing = obs::trace_enabled();
  struct Plan {
    JobPtr job;
    TaskId task;
    const Task* def;
    std::vector<std::uint8_t> missing;  ///< per-input, as staged
  };
  std::vector<Plan> plans;
  for (const JobPtr& jr : jobs) {
    // Resident candidates stage freely (they never consume the window),
    // then missing candidates up to window + idle demand slots — per job:
    // every job owns a full window, so a small job's staging is never
    // crowded out by a large one's backlog.
    for (const StageSelect select : {StageSelect::Resident, StageSelect::Missing}) {
      while (true) {
        const StageDecision d = jr->core->next_to_stage(ns.node, select);
        if (d.task == kInvalidTask) break;
        const Task& task = jr->graph->task(d.task);
        if (tracing && d.reordered) emit_reorder(ns.node, d, jr->id);
        if (task.kind == "sync" || task.inputs.empty()) {
          // Barriers move no data: straight to Runnable.
          ns.staged.emplace(staged_key(jr->id, d.task), Staged{});
          jr->core->stage(d.task, 0);
          continue;
        }
        Staged st;
        st.inputs.resize(task.inputs.size());
        st.missing.resize(task.inputs.size(), 0);
        for (std::size_t i = 0; i < task.inputs.size(); ++i) {
          if (!storage_node.is_resident(task.inputs[i])) {
            st.missing[i] = 1;
            st.missing_bytes += task.inputs[i].length;
          }
        }
        st.resident_at_stage = st.missing_bytes == 0;
        st.stage_ts_ns = obs::TraceClock::now_ns();
        if (!st.resident_at_stage && ns.m_parked != nullptr) ns.m_parked->add();
        std::vector<std::uint8_t> missing = st.missing;
        ns.staged.emplace(staged_key(jr->id, d.task), std::move(st));
        // Every input read reports through the completion queue, so the
        // task waits for one event per input (resident ones land
        // immediately).
        jr->core->stage(d.task, static_cast<int>(task.inputs.size()));
        plans.push_back({jr, d.task, &task, std::move(missing)});
      }
    }
  }
  if (plans.empty()) return;
  // Already-resident inputs complete inline and the queue notifier re-takes
  // ns.mutex, so the reads must be issued with it released.
  lock.unlock();
  std::set<std::uint32_t> dead;  ///< jobs whose read issue threw in this pass
  for (const Plan& p : plans) {
    if (dead.count(p.job->id) != 0) continue;
    // The staging attempt tags the reads so a retry can tell this
    // staging's completions from a torn-down predecessor's stragglers.
    const int attempt = fault_tolerant_ ? (p.job->core->retries(p.task) & 0xF) : 0;
    for (std::size_t i = 0; i < p.def->inputs.size(); ++i) {
      const auto& in = p.def->inputs[i];
      if (tracing && i < p.missing.size() && p.missing[i] != 0) {
        // Load flow opens here, at issue; the storage node marks delivery
        // ('t') and drain_completions closes it ('f') at the consumer.
        obs::emit_flow(obs::Phase::FlowStart, obs::intern("load"), obs::intern("read-issue"),
                       ns.node, obs::current_thread_lane(), obs::TraceClock::now_ns(),
                       obs::causal::flow_id_load(in.array, in.offset), obs::intern("job"),
                       p.job->id);
      }
      try {
        storage_node.read_async(in, make_tag(p.job->id, p.task, attempt, i), p.job->id);
      } catch (...) {
        // A synchronous storage rejection (bad interval, unknown array)
        // fails this job; other jobs' plans proceed.
        dead.insert(p.job->id);
        fail_job(p.job, std::current_exception());
        break;
      }
    }
  }
  lock.lock();
}

void Engine::execute(NodeState& ns, int slot, JobRun& jr, TaskId t, Staged& staged) {
  const Task& task = jr.graph->task(t);
  auto& storage_node = cluster_.node(ns.node);
  const bool tracing = obs::trace_enabled();
  // Residency as observed when the task was staged — by now its inputs are
  // pinned, so probing again would always say "resident".
  const std::uint64_t missing_bytes = staged.missing_bytes;

  TraceEvent ev;
  if (config_.record_trace) {
    ev.task = t;
    ev.name = task.name;
    ev.kind = task.kind;
    ev.node = ns.node;
    ev.slot = slot;
    ev.inputs_resident = staged.resident_at_stage;
    ev.missing_bytes = missing_bytes;
    ev.start = jr.clock.seconds();
  }
  // Output handles are immediate; the inputs arrived with the storage
  // completions that made the task Runnable. Sync tasks are barriers that
  // move no data, so they were staged with no inputs.
  std::vector<storage::WriteHandle> outputs;
  outputs.reserve(task.outputs.size());
  for (const auto& out : task.outputs) {
    outputs.push_back(storage_node.request_write(out).get());
  }
  std::vector<storage::ReadHandle> inputs = std::move(staged.inputs);

  // tid is the per-thread lane (unique process-wide), so spans emitted by
  // one worker always nest cleanly; the compute slot travels as an arg.
  const std::int32_t lane = obs::current_thread_lane();
  std::optional<obs::Span> task_span;
  if (tracing) {
    task_span.emplace("task", task.name, ns.node, lane);
    task_span->arg("task", t).arg("job", jr.id).arg("missing_bytes", missing_bytes);
    // Close the producer→consumer flow of every input array here, inside
    // the just-opened task span: the array name is write-once (storage
    // immutability), so its dep flow id uniquely names the producer.
    const std::uint64_t now = obs::TraceClock::now_ns();
    for (const auto& in : task.inputs) {
      obs::emit_flow(obs::Phase::FlowEnd, obs::intern("dep"), obs::intern("consume"), ns.node,
                     lane, now, obs::causal::flow_id_dep(in.array), obs::intern("task"), t,
                     obs::intern("job"), jr.id);
    }
  }

  if (task.work) {
    TaskContext ctx(&task, ns.node, split_pools_[static_cast<std::size_t>(ns.node)].get(),
                    &inputs, &outputs);
    const std::uint64_t body_start = obs::TraceClock::now_ns();
    task.work(ctx);
    if (ns.m_exec_us != nullptr) {
      ns.m_exec_us->add(static_cast<double>(obs::TraceClock::now_ns() - body_start) * 1e-3);
    }
  }

  // Release inputs first, then outputs (sealing makes results visible).
  inputs.clear();
  outputs.clear();

  if (tracing) {
    // Open the dep flow of every produced array while the task span is
    // still alive ('s' binds to the enclosing slice). Consumers may have
    // unblocked the instant outputs sealed above, so a consumer span can
    // legitimately start before this 's' lands; the causal graph drops
    // such sub-µs inversions instead of inventing a backwards edge.
    const std::uint64_t now = obs::TraceClock::now_ns();
    for (const auto& out : task.outputs) {
      obs::emit_flow(obs::Phase::FlowStart, obs::intern("dep"), obs::intern("produce"), ns.node,
                     lane, now, obs::causal::flow_id_dep(out.array), obs::intern("task"), t,
                     obs::intern("job"), jr.id);
    }
  }

  if (config_.record_trace) {
    ev.end = jr.clock.seconds();
    std::lock_guard lock(trace_mutex_);
    jr.trace.push_back(std::move(ev));
  }
}

void Engine::complete(const JobPtr& jr, TaskId t) {
  if (jr->failed.load()) return;  // the job died while this task was running
  if (jr->m_tasks_done != nullptr) jr->m_tasks_done->add();
  {
    NodeState& owner = *node_states_[static_cast<std::size_t>(jr->assignment[t])];
    if (owner.m_tasks_exec != nullptr) owner.m_tasks_exec->add();
  }
  std::vector<std::pair<int, TaskId>> newly_assigned;
  std::vector<std::string> released;
  // Under a FaultPlan a resurrected producer re-reads its own inputs, so
  // transient arrays must outlive their last reader: release nothing.
  jr->core->finish(t, newly_assigned, fault_tolerant_ ? nullptr : &released);
  for (const std::string& array : released) release_array(array);
  if (jr->core->all_settled()) {
    retire_job(jr);
    wake_all();
    return;
  }
  // Wake every node that gained work, plus the finished task's own node
  // (a compute slot just freed up there).
  std::set<int> to_wake;
  to_wake.insert(jr->assignment[t]);
  for (const auto& [node, task] : newly_assigned) to_wake.insert(node);
  for (const int node : to_wake) {
    NodeState& ns = *node_states_[static_cast<std::size_t>(node)];
    {
      std::lock_guard lock(ns.mutex);
      ++ns.wake_seq;
    }
    ns.cv.notify_all();
  }
}

void Engine::release_array(const std::string& array) {
  const std::optional<storage::ArrayMeta> meta = cluster_.catalog().shard_for(array).find(array);
  if (!meta) return;
  for (std::uint64_t b = 0; b < meta->num_blocks(); ++b) {
    // A block some node still has busy stays until the array is deleted.
    cluster_.forget_block(storage::BlockKey{array, b});
  }
}

void Engine::fail_job(const JobPtr& jr, std::exception_ptr e) {
  {
    std::lock_guard lock(jobs_mutex_);
    if (!jr->error) jr->error = e;
    if (jr->failed.exchange(true)) return;  // someone else is tearing it down
    ++jobs_version_;
  }
  // Drop the job's staged inputs on every node: surviving read handles
  // release their pins; the wake lets parked workers refresh snapshots.
  for (auto& ns : node_states_) {
    {
      std::lock_guard lock(ns->mutex);
      for (auto it = ns->staged.begin(); it != ns->staged.end();) {
        if (static_cast<std::uint32_t>(it->first >> 32) == jr->id) {
          it = ns->staged.erase(it);
        } else {
          ++it;
        }
      }
      ++ns->wake_seq;
    }
    ns->cv.notify_all();
  }
  retire_job(jr);
}

void Engine::retire_job(const JobPtr& jr) {
  {
    std::lock_guard lock(jobs_mutex_);
    if (jr->retired) return;
    jr->retired = true;
  }
  Report report;
  report.makespan = jr->clock.seconds();
  const bool settled = jr->core->all_settled();
  report.tasks_executed = jr->core->completed();
  const std::vector<TaskId> faulted = jr->core->faulted_tasks();
  if (!jr->error) {
    DOOC_CHECK(settled, "job finished without settling all tasks");
  }
  std::vector<std::uint8_t> is_faulted(jr->graph->size(), 0);
  for (const TaskId t : faulted) is_faulted[t] = 1;
  for (TaskId t = 0; t < jr->graph->size(); ++t) {
    if (is_faulted[t] == 0) report.total_flops += jr->graph->task(t).est_flops;
  }
  report.assignment = jr->assignment;
  {
    std::lock_guard tlock(trace_mutex_);
    report.trace = std::move(jr->trace);
  }
  report.storage = delta(cluster_.total_stats(), jr->stats_before);
  report.cross_node_bytes = report.storage.remote_fetch_bytes + report.storage.remote_flush_bytes;
  {
    std::lock_guard flock(fault_mutex_);
    report.faults = jr->faults;
  }
  if (!report.faults.ok()) {
    DOOC_LOG(Warn, "engine") << "job " << jr->id << ": " << report.faults.to_text();
  }
  cluster_.retire_tenant(jr->id);
  auto& metrics = obs::Metrics::instance();
  metrics.counter("jobs.completed", -1).add();
  metrics.histogram("jobs.makespan_us", -1).add(report.makespan * 1e6);

  std::function<void(std::uint32_t)> cb;
  {
    std::lock_guard lock(jobs_mutex_);
    jr->report = std::move(report);
    const auto tag16 = static_cast<std::uint16_t>(jr->id & 0xFFFF);
    auto it = jobs_by_tag_.find(tag16);
    if (it != jobs_by_tag_.end() && it->second == jr) jobs_by_tag_.erase(it);
    ++jobs_version_;
    cb = on_job_done_;
    if (cb) ++on_job_done_running_;
  }
  // The callback runs before awaiters wake, so whatever it accounts for
  // (the jobs layer's admission slots) is settled once await() returns.
  if (cb) cb(jr->id);
  {
    std::lock_guard lock(jobs_mutex_);
    if (cb) --on_job_done_running_;
    jr->done = true;
  }
  jobs_cv_.notify_all();
}

void Engine::worker_loop(NodeState& ns, int slot) {
  std::vector<int> wakes;
  std::vector<JobPtr> failures;
  std::vector<JobPtr> settled;
  // Fail/retire jobs and notify nodes only with ns.mutex released
  // (fail_job takes every node's mutex; notify takes other nodes').
  const auto service = [&](std::unique_lock<std::mutex>& lock) {
    if (wakes.empty() && failures.empty() && settled.empty()) return false;
    lock.unlock();
    notify_nodes(wakes);
    for (const JobPtr& jr : failures) fail_job(jr, jr->error);
    failures.clear();
    for (const JobPtr& jr : settled) retire_job(jr);
    settled.clear();
    lock.lock();
    return true;
  };
  while (true) {
    JobPtr jr;
    TaskId t = kInvalidTask;
    Staged staged;
    {
      std::unique_lock lock(ns.mutex);
      while (true) {
        if (shutdown_.load()) return;
        drain_completions(ns, wakes, failures, settled);
        if (service(lock)) continue;
        const std::vector<JobPtr> jobs = job_snapshot(ns.rr);
        if (!jobs.empty()) {
          stage_tasks(ns, lock, jobs);
          if (shutdown_.load()) return;
          // Reads issued while unlocked may have completed inline already.
          drain_completions(ns, wakes, failures, settled);
          if (service(lock)) continue;
          for (const JobPtr& j : jobs) {
            if (j->failed.load()) continue;
            t = j->core->take_runnable(ns.node);
            if (t != kInvalidTask) {
              jr = j;
              break;
            }
          }
          if (t != kInvalidTask) {
            ++ns.rr;  // round-robin: next wake starts at the next job
            break;
          }
        }
        const std::uint64_t seen = ns.wake_seq;
        ns.cv.wait(lock, [&] { return ns.wake_seq != seen || shutdown_.load(); });
      }
      auto it = ns.staged.find(staged_key(jr->id, t));
      DOOC_CHECK(it != ns.staged.end(), "runnable task lost its staged inputs");
      staged = std::move(it->second);
      ns.staged.erase(it);
    }
    try {
      execute(ns, slot, *jr, t, staged);
    } catch (...) {
      fail_job(jr, std::current_exception());
      continue;
    }
    complete(jr, t);
  }
}

}  // namespace dooc::sched
