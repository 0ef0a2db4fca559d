#include "simcluster/sim_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"

namespace dooc::sim {

using sched::Task;
using sched::TaskId;

namespace {
/// Inputs smaller than this are control messages (sync tokens): their cost
/// is part of the sync task's barrier charge, not a modeled transfer.
constexpr std::uint64_t kControlBytes = 4096;

/// Emit a Complete event stamped in *virtual* nanoseconds. Same schema as
/// the real backend (pid = virtual node, cat "task"/"io"), so the trace
/// reader and dooc_tracecat work unchanged on simulated runs.
void emit_virtual(std::string_view cat, std::string_view name, int pid, int tid,
                  double start_s, double dur_s, std::string_view arg_name = {},
                  std::uint64_t arg_val = 0, std::string_view arg2_name = {},
                  std::uint64_t arg2_val = 0) {
  obs::Event ev;
  ev.phase = obs::Phase::Complete;
  ev.cat = obs::intern(cat);
  ev.name = obs::intern(name);
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_ns = static_cast<std::uint64_t>(start_s * 1e9);
  ev.dur_ns = static_cast<std::uint64_t>(dur_s * 1e9);
  if (!arg_name.empty()) {
    ev.nargs = 1;
    ev.arg_name[0] = obs::intern(arg_name);
    ev.arg_val[0] = arg_val;
  }
  if (!arg2_name.empty()) {
    ev.nargs = 2;
    ev.arg_name[1] = obs::intern(arg2_name);
    ev.arg_val[1] = arg2_val;
  }
  obs::TraceSession::instance().emit(ev);
}

/// Flow point stamped in virtual nanoseconds. Correlation ids come from the
/// same obs::causal::flow_id_* functions the real engine uses, so a DES
/// trace and an engine trace of the same graph correlate identically.
void emit_virtual_flow(obs::Phase phase, std::string_view cat, std::string_view name, int pid,
                       int tid, double ts_s, std::uint64_t flow_id,
                       std::string_view arg_name = {}, std::uint64_t arg_val = 0) {
  obs::emit_flow(phase, obs::intern(cat), obs::intern(name), pid, tid,
                 static_cast<std::uint64_t>(ts_s * 1e9), flow_id,
                 arg_name.empty() ? 0 : obs::intern(arg_name), arg_val);
}
}  // namespace

struct SimEngine::NodeState {
  int node = -1;
  /// Concurrently running tasks (up to SimResources::compute_slots).
  struct Running {
    std::uint32_t job = 0;
    TaskId task = sched::kInvalidTask;
    double end = 0.0;
  };
  std::vector<Running> running;
  // Memory accounting.
  std::uint64_t used_bytes = 0;
  std::uint64_t inflight_bytes = 0;
  std::map<std::string, std::uint64_t> lru_tick;  // resident arrays
  std::map<std::string, int> pins;
  std::uint64_t tick = 0;
  std::uint64_t tasks_done = 0;  ///< completed tasks (telemetry frames)
  /// Round-robin cursor over the top priority tier of jobs.
  std::uint64_t rr = 0;
  // Fair-share fetch admission (budgeted runs): the WDRR arbiter and, per
  // job, the FIFO of fetch admissions it deferred.
  struct Deferred {
    std::string array;
    std::uint64_t bytes = 0;
    std::uint64_t since_ns = 0;
  };
  FairShare fair;
  std::map<TenantId, std::deque<Deferred>> deferred;
};

SimEngine::~SimEngine() = default;

SimEngine::SimEngine(int num_nodes, SimResources resources,
                     std::map<std::string, solver::VirtualArray> arrays)
    : num_nodes_(num_nodes), res_(std::move(resources)), meta_(std::move(arrays)) {
  DOOC_REQUIRE(num_nodes > 0, "simulated cluster needs at least one node");
}

double SimEngine::task_duration(const Task& task) const {
  if (task.kind == "sync") return res_.sync_cost;
  if (task.kind == "multiply") {
    return task.est_flops / res_.compute_rate + res_.task_overhead;
  }
  if (task.kind == "sum" || task.kind == "aggregate") {
    std::uint64_t touched = 0;
    for (const auto& in : task.inputs) {
      if (in.length > kControlBytes) touched += in.length;
    }
    for (const auto& out : task.outputs) touched += out.length;
    return static_cast<double>(touched) / res_.mem_bw + res_.task_overhead;
  }
  return task.est_flops / res_.compute_rate + res_.task_overhead;
}

bool SimEngine::inputs_resident(int node, const Task& task) {
  if (task.kind == "sync") return true;  // control-only
  for (const auto& in : task.inputs) {
    if (in.length <= kControlBytes) continue;
    const auto it = arrays_.find(in.array);
    if (it == arrays_.end() || it->second.resident_on.count(node) == 0) return false;
  }
  return true;
}

std::uint64_t SimEngine::resident_input_bytes(int node, const Task& task) {
  std::uint64_t bytes = 0;
  for (const auto& in : task.inputs) {
    const auto it = arrays_.find(in.array);
    if (it != arrays_.end() && it->second.resident_on.count(node) != 0) bytes += in.length;
  }
  return bytes;
}

void SimEngine::evict_for(NodeState& ns, std::uint64_t incoming) {
  while (ns.used_bytes + ns.inflight_bytes + incoming > res_.node_memory) {
    // LRU over durable, unpinned resident arrays.
    std::string victim;
    std::uint64_t best_tick = 0;
    bool found = false;
    for (const auto& [name, tick] : ns.lru_tick) {
      const auto& st = arrays_.at(name);
      if (!st.durable) continue;
      auto pin = ns.pins.find(name);
      if (pin != ns.pins.end() && pin->second > 0) continue;
      if (!found || tick < best_tick) {
        victim = name;
        best_tick = tick;
        found = true;
      }
    }
    if (!found) return;  // allow overshoot (mirrors the real storage layer)
    auto& st = arrays_.at(victim);
    st.resident_on.erase(ns.node);
    ns.used_bytes -= st.bytes;
    ns.lru_tick.erase(victim);
    ns.pins.erase(victim);
  }
}

void SimEngine::make_resident(int node, const std::string& array) {
  auto& st = arrays_.at(array);
  if (st.resident_on.insert(node).second) {
    auto& ns = *nodes_[static_cast<std::size_t>(node)];
    ns.used_bytes += st.bytes;
    ns.lru_tick[array] = ++ns.tick;
  }
}

void SimEngine::ensure_fetch(NodeState& ns, const std::string& array) {
  auto it = arrays_.find(array);
  if (it == arrays_.end()) return;
  ArrayState& st = it->second;
  if (st.bytes <= kControlBytes) return;
  if (st.resident_on.count(ns.node) != 0 || st.fetching_on.count(ns.node) != 0) return;
  if (plan_ != nullptr) {
    const auto bit = blocked_until_.find({ns.node, array});
    if (bit != blocked_until_.end() && bit->second > now_) return;  // backoff in force
  }

  std::vector<ResourceId> path;
  bool is_gpfs = false;
  double own_cap = 0.0;
  if (st.durable) {
    // Filesystem read through the node's GPFS client and the shared
    // aggregate, individually perturbed by bandwidth noise.
    path = {gpfs_node_link_[static_cast<std::size_t>(ns.node)], gpfs_aggregate_};
    is_gpfs = true;
    SplitMix64 rng(res_.seed ^ (noise_state_++ * 0x9e3779b97f4a7c15ull));
    const double factor = 1.0 - res_.bw_noise * rng.next_double();
    own_cap = res_.node_read_cap * factor;
  } else {
    // Produced data: fetch over IB from a live node that holds it.
    if (st.resident_on.empty()) return;  // producer not done yet
    int src = -1;
    for (int cand : st.resident_on) {
      if (cand == ns.node) return;  // already local (shouldn't happen)
      if (plan_ != nullptr && plan_->node_down(cand)) continue;  // holder unreachable
      src = cand;
      break;
    }
    if (src < 0) return;  // every holder is down: wait out the outage
    path = {ib_egress_[static_cast<std::size_t>(src)],
            ib_ingress_[static_cast<std::size_t>(ns.node)]};
  }

  // Memory admission control for the incoming copy.
  evict_for(ns, st.bytes);
  if (ns.used_bytes + ns.inflight_bytes + st.bytes > res_.node_memory &&
      ns.used_bytes + ns.inflight_bytes > 0) {
    return;  // try again later; something will drain
  }

  ns.inflight_bytes += st.bytes;
  st.fetching_on.insert(ns.node);
  const FlowId id = net_.start_flow(st.bytes, std::move(path), own_cap);
  flow_target_[id] = {ns.node, array};
  flow_start_[id] = now_;
  if (obs::trace_enabled()) {
    // Same lane as the io span emitted at flow completion (100 + id%16).
    emit_virtual_flow(obs::Phase::FlowStart, "load", "read-issue", ns.node,
                      100 + static_cast<int>(id % 16), now_,
                      obs::causal::flow_id_load(array, 0));
  }
  if (is_gpfs) {
    gpfs_flows_.insert(id);
    metrics_.disk_bytes += st.bytes;
  } else {
    metrics_.net_bytes += st.bytes;
  }
}

bool SimEngine::arrived(const Job& job) const { return job.spec.arrival <= now_ + 1e-12; }

std::vector<SimEngine::Job*> SimEngine::job_order(const NodeState& ns) {
  std::vector<Job*> order;
  for (Job& job : jobs_) {
    if (!job.done && arrived(job)) order.push_back(&job);
  }
  std::sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    if (a->spec.priority != b->spec.priority) return a->spec.priority > b->spec.priority;
    return a->idx < b->idx;
  });
  std::size_t tier = order.empty() ? 0 : 1;
  while (tier < order.size() && order[tier]->spec.priority == order[0]->spec.priority) ++tier;
  if (tier > 1) {
    const auto off = static_cast<std::ptrdiff_t>(ns.rr % tier);
    std::rotate(order.begin(), order.begin() + off,
                order.begin() + static_cast<std::ptrdiff_t>(tier));
  }
  return order;
}

bool SimEngine::has_work(const NodeState& ns) const {
  if (!ns.running.empty()) return true;
  for (const Job& job : jobs_) {
    if (job.done || !arrived(job)) continue;
    if (job.core->backlog(ns.node) > 0 || job.core->pending(ns.node) > 0 ||
        job.core->runnable(ns.node) > 0) {
      return true;
    }
  }
  return false;
}

bool SimEngine::settle_jobs() {
  bool all_done = true;
  for (Job& job : jobs_) {
    if (!job.done && arrived(job) && job.core->all_settled()) {
      job.done = true;
      job.finish = now_;
    }
    all_done = all_done && job.done;
  }
  return all_done;
}

void SimEngine::schedule_node(NodeState& ns) {
  using sched::StageDecision;
  using sched::StageSelect;

  if (plan_ != nullptr && plan_->node_down(ns.node)) {
    // A down node serves nothing and starts nothing; compute already in
    // flight finishes. Its op clock still ticks once per stalled scheduling
    // round so bounded outage windows (down=N@AFTER+OPS) expire under
    // virtual time.
    if (has_work(ns)) (void)plan_->next_read(ns.node);
    return;
  }
  const std::vector<Job*> order = job_order(ns);
  if (order.empty()) return;

  // 1. Let each core re-probe residency: staged tasks whose flows landed
  //    become Runnable; runnable tasks whose data was evicted fall back.
  // 2. Stage fully-resident candidates — they never consume the prefetch
  //    window and become Runnable immediately.
  for (Job* job : order) {
    job->core->refresh(ns.node);
    while (true) {
      const StageDecision d = job->core->next_to_stage(ns.node, StageSelect::Resident);
      if (d.task == sched::kInvalidTask) break;
      job->core->stage(d.task, 0);
    }
  }

  // 3. Start compute while slots are free (a node's compute filters run
  //    concurrently on its cores), round-robin over the jobs. The rotation
  //    is re-derived after every grant: a single call often fills several
  //    slots, and advancing rr without re-rotating lets the offset alias
  //    with the pick count (e.g. two jobs, two slots per wake-up → the same
  //    job wins the front position forever). Inputs pin for the task's
  //    duration — before step 4's fetches can trigger evictions.
  while (static_cast<int>(ns.running.size()) < res_.compute_slots) {
    Job* job = nullptr;
    TaskId t = sched::kInvalidTask;
    for (Job* candidate : job_order(ns)) {
      t = candidate->core->take_runnable(ns.node);
      if (t != sched::kInvalidTask) {
        job = candidate;
        break;
      }
    }
    if (job == nullptr) break;
    ++ns.rr;
    const Task& task = job->spec.graph->task(t);
    double dur = task_duration(task);
    // Injected straggler: this node's compute is uniformly slower.
    if (const auto f = res_.node_compute_factor.find(ns.node);
        f != res_.node_compute_factor.end()) {
      dur *= f->second;
    }
    ns.running.push_back({job->idx, t, now_ + dur});
    if (obs::trace_enabled()) {
      // Slot index the task just took doubles as its compute-lane tid.
      const int tid = static_cast<int>(ns.running.size()) - 1;
      emit_virtual("task", task.name, ns.node, tid, now_, dur, "task", t, "job", job->idx);
      for (const auto& in : task.inputs) {
        // Close the producer→consumer dep flow, and (for bulk inputs) the
        // load flow of the fetch that made the input resident here — an
        // input this node never fetched leaves an orphan 'f', which both
        // viewers and the causal graph drop.
        emit_virtual_flow(obs::Phase::FlowEnd, "dep", "consume", ns.node, tid, now_,
                          obs::causal::flow_id_dep(in.array), "task", t);
        if (in.length > kControlBytes) {
          emit_virtual_flow(obs::Phase::FlowEnd, "load", "load-ready", ns.node, tid, now_,
                            obs::causal::flow_id_load(in.array, 0), "task", t);
        }
      }
    }
    for (const auto& in : task.inputs) {
      if (in.length <= kControlBytes) continue;
      ++ns.pins[in.array];
      ns.lru_tick[in.array] = ++ns.tick;
    }
  }

  // 4. Keep the I/O pipeline full: stage tasks with missing data up to each
  //    job's prefetch window and issue their fetches. The input count is
  //    symbolic (the DES promotes by re-probing, not by counting arrival
  //    events). Then re-issue fetches for staged tasks whose admission was
  //    deferred on memory pressure (a no-op for flows already running).
  for (Job* job : order) {
    while (true) {
      const StageDecision d = job->core->next_to_stage(ns.node, StageSelect::Missing);
      if (d.task == sched::kInvalidTask) break;
      job->core->stage(d.task, 1);
      for (const auto& in : job->spec.graph->task(d.task).inputs) fetch(ns, *job, in.array);
    }
    for (const TaskId t : job->core->pending_tasks(ns.node)) {
      for (const auto& in : job->spec.graph->task(t).inputs) fetch(ns, *job, in.array);
    }
  }
  drain_deferred(ns);
}

void SimEngine::fetch(NodeState& ns, const Job& job, const std::string& array) {
  if (res_.inflight_load_budget == 0) {
    ensure_fetch(ns, array);
    return;
  }
  const auto it = arrays_.find(array);
  if (it == arrays_.end() || it->second.bytes <= kControlBytes) return;
  const ArrayState& st = it->second;
  if (st.resident_on.count(ns.node) != 0 || st.fetching_on.count(ns.node) != 0) return;
  auto& queue = ns.deferred[job.idx];
  for (const NodeState::Deferred& d : queue) {
    if (d.array == array) return;  // already waiting for admission
  }
  const bool others_waiting =
      std::any_of(ns.deferred.begin(), ns.deferred.end(),
                  [&](const auto& entry) { return entry.first != job.idx && !entry.second.empty(); });
  if (!ns.fair.try_admit(job.idx, st.bytes, others_waiting)) {
    queue.push_back({array, st.bytes, static_cast<std::uint64_t>(now_ * 1e9)});
    ++metrics_.deferred_fetches;
    return;
  }
  ensure_fetch(ns, array);
  if (st.fetching_on.count(ns.node) != 0) {
    ns.fair.charge(job.idx, st.bytes);
    flow_job_[{ns.node, array}] = job.idx;
  }
}

void SimEngine::drain_deferred(NodeState& ns) {
  if (res_.inflight_load_budget == 0) return;
  while (true) {
    std::vector<FairShare::Head> heads;
    for (auto qit = ns.deferred.begin(); qit != ns.deferred.end();) {
      auto& q = qit->second;
      // Entries whose array landed meanwhile (another job fetched it, or a
      // producer output it here) are satisfied already.
      while (!q.empty()) {
        const auto ait = arrays_.find(q.front().array);
        if (ait != arrays_.end() && ait->second.resident_on.count(ns.node) == 0 &&
            ait->second.fetching_on.count(ns.node) == 0) {
          break;
        }
        q.pop_front();
      }
      if (q.empty()) {
        qit = ns.deferred.erase(qit);
        continue;
      }
      heads.push_back(FairShare::Head{qit->first, q.front().bytes, q.front().since_ns});
      ++qit;
    }
    if (heads.empty()) return;
    const TenantId granted = ns.fair.pick(heads, static_cast<std::uint64_t>(now_ * 1e9));
    if (granted == FairShare::kNone) return;
    auto& q = ns.deferred.at(granted);
    const NodeState::Deferred d = q.front();
    q.pop_front();
    if (q.empty()) ns.deferred.erase(granted);
    ensure_fetch(ns, d.array);
    if (arrays_.at(d.array).fetching_on.count(ns.node) == 0) {
      // Memory admission refused: put it back and stop — pressure clears
      // when running tasks finish or flows land.
      ns.deferred[granted].push_front(d);
      return;
    }
    ns.fair.charge(granted, d.bytes);
    flow_job_[{ns.node, d.array}] = granted;
  }
}

void SimEngine::complete_flow(FlowId id) {
  const auto [node, array] = flow_target_.at(id);
  flow_target_.erase(id);
  const bool was_gpfs = gpfs_flows_.erase(id) != 0;
  auto& ns = *nodes_[static_cast<std::size_t>(node)];
  auto& st = arrays_.at(array);
  if (const auto sit = flow_start_.find(id); sit != flow_start_.end()) {
    if (obs::trace_enabled()) {
      emit_virtual("io", was_gpfs ? "gpfs_read" : "ib_fetch", node,
                   100 + static_cast<int>(id % 16), sit->second, now_ - sit->second, "bytes",
                   st.bytes);
      emit_virtual_flow(obs::Phase::FlowStep, "load", "deliver", node,
                        100 + static_cast<int>(id % 16), now_,
                        obs::causal::flow_id_load(array, 0));
    }
    flow_start_.erase(sit);
  }
  st.fetching_on.erase(node);
  ns.inflight_bytes -= st.bytes;
  if (const auto fj = flow_job_.find({node, array}); fj != flow_job_.end()) {
    ns.fair.release(fj->second, st.bytes);
    flow_job_.erase(fj);
  }
  // One completed fetch = one storage op against `node`: draw the same
  // deterministic verdict the real I/O filters would.
  fault::FaultDecision verdict;
  if (plan_ != nullptr) verdict = plan_->next_read(node);
  using Action = fault::FaultDecision::Action;
  if (verdict.action == Action::Fail || verdict.action == Action::ShortRead) {
    const auto key = std::make_pair(node, array);
    const int failures = ++fetch_failures_[key];
    const fault::RetryPolicy& rp = plan_->config().retry;
    ++metrics_.fetch_faults;
    if (failures < rp.max_attempts) {
      // Not resident: ensure_fetch re-issues once the backoff expires.
      ++metrics_.fetch_retries;
      blocked_until_[key] = now_ + fault::backoff_delay_s(rp, failures);
    } else {
      // Budget exhausted: consumers retry or poison through their cores.
      // The failure count resets so a retried consumer starts a fresh
      // fetch budget (mirroring the real engine's per-staging retries).
      fetch_failures_.erase(key);
      blocked_until_.erase(key);
      fault_consumers(node, array);
    }
  } else if (verdict.action == Action::Delay && verdict.delay_s > 0.0) {
    arriving_.emplace_back(now_ + verdict.delay_s, node, array);
  } else if (!st.released) {
    make_resident(node, array);
  }
  drain_deferred(ns);
}

void SimEngine::release_array(const std::string& array) {
  auto it = arrays_.find(array);
  if (it == arrays_.end()) return;
  ArrayState& st = it->second;
  st.released = true;
  for (int node : st.resident_on) {
    auto& ns = *nodes_[static_cast<std::size_t>(node)];
    ns.used_bytes -= st.bytes;
    ns.lru_tick.erase(array);
    ns.pins.erase(array);
  }
  st.resident_on.clear();
}

void SimEngine::fault_consumers(int node, const std::string& array) {
  for (Job& job : jobs_) {
    for (const TaskId t : job.core->pending_tasks(node)) {
      const Task& task = job.spec.graph->task(t);
      const bool uses = std::any_of(task.inputs.begin(), task.inputs.end(),
                                    [&](const auto& in) { return in.array == array; });
      if (!uses) continue;
      std::vector<TaskId> poisoned;
      if (job.core->fault(t, &poisoned) == sched::ExecutorCore::FaultAction::Poisoned) {
        metrics_.tasks_faulted += poisoned.size();
        if (obs::trace_enabled()) {
          obs::emit_instant(obs::intern("fault"), obs::intern("task-poisoned"), node, 0);
        }
      }
    }
  }
}

void SimEngine::finish_task(NodeState& ns, Job& job, TaskId t) {
  const Task& task = job.spec.graph->task(t);

  // Unpin inputs.
  for (const auto& in : task.inputs) {
    if (in.length <= kControlBytes) continue;
    auto pin = ns.pins.find(in.array);
    if (pin != ns.pins.end() && pin->second > 0) --pin->second;
  }
  // Dependents enter the core's queues; transient arrays whose last reader
  // this was are dropped everywhere — except under a fault plan, where the
  // real engine keeps them for producer re-runs. Written arrays are private
  // to one job, so its core alone decides when they are released.
  std::vector<std::pair<int, TaskId>> newly_assigned;
  std::vector<std::string> released;
  job.core->finish(t, newly_assigned, plan_ != nullptr ? nullptr : &released);
  for (const std::string& array : released) release_array(array);
  // Outputs become resident here.
  for (const auto& out : task.outputs) {
    evict_for(ns, arrays_.at(out.array).bytes);
    make_resident(ns.node, out.array);
    if (obs::trace_enabled()) {
      emit_virtual_flow(obs::Phase::FlowStart, "dep", "produce", ns.node, 0, now_,
                        obs::causal::flow_id_dep(out.array), "task", t);
    }
  }
  metrics_.total_flops += task.est_flops;
  job.flops += task.est_flops;
  ++job.tasks;
  ++ns.tasks_done;
}

SimMetrics SimEngine::run(const sched::TaskGraph& graph, sched::LocalPolicy policy) {
  return run_jobs({SimJob{&graph, 0.0, 1.0, 0}}, policy);
}

double jain(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  return sq > 0.0 ? (sum * sum) / (static_cast<double>(xs.size()) * sq) : 1.0;
}

SimMetrics SimEngine::run_jobs(const std::vector<SimJob>& jobs, sched::LocalPolicy policy) {
  DOOC_REQUIRE(!jobs.empty(), "run_jobs() needs at least one job");
  now_ = 0;
  metrics_ = SimMetrics{};
  metrics_.nodes = num_nodes_;
  metrics_.cores_per_node = res_.cores_per_node;
  net_ = FlowNetwork{};
  flow_target_.clear();
  flow_start_.clear();
  gpfs_flows_.clear();
  flow_job_.clear();
  noise_state_ = 0;
  // Programmatic plan wins; DOOC_FAULTS reaches the DES the same way it
  // reaches a real StorageCluster. `hold` keeps an env-derived plan alive
  // for the duration of the run.
  const std::shared_ptr<fault::FaultPlan> hold =
      fault_plan_ != nullptr ? fault_plan_ : fault::FaultPlan::from_env();
  plan_ = hold != nullptr && hold->enabled() ? hold.get() : nullptr;
  fetch_failures_.clear();
  blocked_until_.clear();
  arriving_.clear();

  // Resources.
  gpfs_node_link_.clear();
  ib_egress_.clear();
  ib_ingress_.clear();
  gpfs_aggregate_ = net_.add_resource("gpfs", res_.aggregate_read_cap);
  for (int n = 0; n < num_nodes_; ++n) {
    gpfs_node_link_.push_back(
        net_.add_resource("gpfs_client_" + std::to_string(n), res_.node_read_cap));
    ib_egress_.push_back(net_.add_resource("ib_out_" + std::to_string(n), res_.ib_link));
    ib_ingress_.push_back(net_.add_resource("ib_in_" + std::to_string(n), res_.ib_link));
  }

  // Array runtime state, shared by every job. Written arrays must be
  // private to one job (namespace them).
  arrays_.clear();
  for (const auto& [name, meta] : meta_) {
    ArrayState st;
    st.bytes = meta.bytes;
    st.home = meta.home_node;
    st.durable = meta.durable;
    arrays_.emplace(name, st);
  }
  std::map<std::string, std::uint32_t> writer_job;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const SimJob& spec = jobs[j];
    DOOC_REQUIRE(spec.graph != nullptr && spec.graph->built(),
                 "run_jobs() needs built task graphs");
    DOOC_REQUIRE(spec.weight > 0.0, "job weight must be positive");
    for (TaskId t = 0; t < spec.graph->size(); ++t) {
      for (const auto& in : spec.graph->task(t).inputs) {
        DOOC_REQUIRE(arrays_.count(in.array) != 0,
                     "task reads unknown array '" + in.array + "'");
      }
      for (const auto& out : spec.graph->task(t).outputs) {
        const auto [wit, inserted] = writer_job.emplace(out.array, static_cast<std::uint32_t>(j));
        DOOC_REQUIRE(inserted || wit->second == j,
                     "jobs " + std::to_string(wit->second) + " and " + std::to_string(j) +
                         " both write array '" + out.array + "' — namespace per-job arrays");
      }
    }
  }

  // Per-job global assignment (same affinity heuristic as the real engine)
  // and the shared execution state machine (dependency counting, per-node
  // queues, policy order, prefetch window) — same core as sched::Engine.
  class VirtualLocator final : public sched::DataLocator {
   public:
    explicit VirtualLocator(const std::map<std::string, solver::VirtualArray>* m) : m_(m) {}
    [[nodiscard]] int home_of(const storage::ArrayName& name) const override {
      auto it = m_->find(name);
      return it == m_->end() ? -1 : it->second.home_node;
    }

   private:
    const std::map<std::string, solver::VirtualArray>* m_;
  };
  VirtualLocator locator(&meta_);
  sched::CoreConfig core_config;
  core_config.policy = policy;
  core_config.prefetch_window = res_.prefetch_window;
  core_config.demand_slots = 0;  // the DES never demand-stages past the window
  jobs_.clear();
  jobs_.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Job& job = jobs_[j];
    job.spec = jobs[j];
    job.idx = static_cast<std::uint32_t>(j);
    job.core = std::make_unique<sched::ExecutorCore>(
        *job.spec.graph, sched::GlobalScheduler(num_nodes_).assign(*job.spec.graph, locator),
        num_nodes_, core_config, static_cast<sched::ResidencyProbe*>(this));
  }

  // Nodes, each with the same WDRR fetch arbiter the real storage layer
  // runs, clocked in virtual nanoseconds.
  FairShareConfig fair_config = res_.fair_share;
  fair_config.budget_bytes = res_.inflight_load_budget;
  nodes_.clear();
  for (int n = 0; n < num_nodes_; ++n) {
    auto ns = std::make_unique<NodeState>();
    ns->node = n;
    if (res_.inflight_load_budget != 0) {
      ns->fair.set_config(fair_config);
      for (const Job& job : jobs_) ns->fair.set_tenant(job.idx, job.spec.weight, job.spec.priority);
    }
    nodes_.push_back(std::move(ns));
  }

  // Virtual-time telemetry replay: the same Hub + Watchdog the coordinator
  // runs, fed per-node frames on the configured cadence of *virtual*
  // seconds. Telemetry charges no modeled cost — only the verdicts
  // (SimMetrics::health) appear.
  const bool telemetry_on = res_.telemetry.enabled;
  std::optional<obs::telemetry::TelemetryHub> hub;
  std::optional<obs::telemetry::Watchdog> watchdog;
  std::vector<std::uint64_t> telemetry_seq(static_cast<std::size_t>(num_nodes_), 0);
  const double telemetry_interval_s = static_cast<double>(res_.telemetry.interval_ms) * 1e-3;
  double next_telemetry_s = 0.0;
  if (telemetry_on) {
    hub.emplace(res_.telemetry.history);
    watchdog.emplace(res_.telemetry);
  }
  const auto telemetry_tick = [&](double at_s) {
    const auto vns = static_cast<std::uint64_t>(at_s * 1e9);
    for (int n = 0; n < num_nodes_; ++n) {
      if (const auto mute = res_.node_telemetry_mute_after.find(n);
          mute != res_.node_telemetry_mute_after.end() && at_s > mute->second) {
        continue;  // the SIGSTOP drill: heartbeats vanish, compute does not
      }
      auto& ns = *nodes_[static_cast<std::size_t>(n)];
      obs::telemetry::TelemetryFrame f;
      f.node = n;
      f.seq = telemetry_seq[static_cast<std::size_t>(n)]++;
      f.ts_ns = vns;
      f.tasks_executed = ns.tasks_done;
      f.tasks_inflight = ns.running.size();
      for (const Job& job : jobs_) {
        if (job.done || !arrived(job)) continue;
        f.tasks_inflight += job.core->pending(n);
        f.queue_depth += job.core->backlog(n) + job.core->runnable(n);
      }
      f.inflight_bytes = ns.inflight_bytes;
      hub->add(f, vns);
      ++metrics_.telemetry_frames;
    }
    for (auto& e : watchdog->poll(*hub, vns)) metrics_.health.push_back(std::move(e));
  };

  // The event loop.
  std::size_t total = 0;
  for (const Job& job : jobs_) total += job.spec.graph->size();
  std::size_t guard = 0;
  const std::size_t guard_limit = 100 * total + 100000;
  while (!settle_jobs()) {
    DOOC_CHECK(++guard < guard_limit, "simulation event-loop guard tripped");
    // Due telemetry ticks fire before scheduling so frames snapshot the
    // state as of the tick time, exactly like a daemon's cadence.
    while (telemetry_on && next_telemetry_s <= now_ + 1e-12) {
      telemetry_tick(next_telemetry_s);
      next_telemetry_s += telemetry_interval_s;
    }
    // Expired backoff gates are consumed (ensure_fetch may retry now);
    // live ones bound dt below so the clock jumps straight to the retry.
    for (auto it = blocked_until_.begin(); it != blocked_until_.end();) {
      it = it->second <= now_ ? blocked_until_.erase(it) : std::next(it);
    }
    for (auto& ns : nodes_) schedule_node(*ns);

    double dt = net_.next_completion_delta();
    for (const auto& ns : nodes_) {
      for (const auto& r : ns->running) dt = std::min(dt, r.end - now_);
    }
    for (const auto& [key, until] : blocked_until_) dt = std::min(dt, until - now_);
    for (const auto& [when, n, a] : arriving_) dt = std::min(dt, when - now_);
    for (const Job& job : jobs_) {
      if (!arrived(job)) dt = std::min(dt, job.spec.arrival - now_);
    }
    if (telemetry_on && std::isfinite(dt)) dt = std::min(dt, next_telemetry_s - now_);
    if (!std::isfinite(dt)) {
      // Nothing in flight: either we just enabled work (loop again) or the
      // jobs are stuck.
      const bool progress_possible =
          std::any_of(nodes_.begin(), nodes_.end(), [&](const auto& ns) { return has_work(*ns); });
      DOOC_CHECK(progress_possible, "simulated execution deadlocked");
      // A node has ready tasks but can neither run nor fetch — this only
      // happens transiently when fetches were deferred on memory pressure;
      // re-running schedule_node after other nodes drained resolves it.
      // Guard against a true livelock by charging a small idle step.
      now_ += 1e-3;
      continue;
    }
    dt = std::max(dt, 0.0);
    if (!gpfs_flows_.empty()) metrics_.gpfs_busy += dt;
    const auto finished = net_.advance(dt);
    now_ += dt;
    for (FlowId id : finished) complete_flow(id);
    // Deferred deliveries (injected latency spikes) now due.
    for (auto it = arriving_.begin(); it != arriving_.end();) {
      if (std::get<0>(*it) <= now_ + 1e-12) {
        if (!arrays_.at(std::get<2>(*it)).released) {
          make_resident(std::get<1>(*it), std::get<2>(*it));
        }
        it = arriving_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& ns : nodes_) {
      for (std::size_t i = 0; i < ns->running.size();) {
        if (ns->running[i].end <= now_ + 1e-12) {
          const NodeState::Running r = ns->running[i];
          ns->running.erase(ns->running.begin() + static_cast<std::ptrdiff_t>(i));
          finish_task(*ns, jobs_[r.job], r.task);
        } else {
          ++i;
        }
      }
    }
  }

  metrics_.makespan = now_;
  for (const auto& ns : nodes_) metrics_.starvation_overrides += ns->fair.starvation_overrides();
  for (const Job& job : jobs_) {
    metrics_.jobs.push_back({job.idx, job.spec.arrival, job.finish,
                             job.finish - job.spec.arrival, job.flops, job.tasks});
  }
  jobs_.clear();  // cores hold pointers into the callers' graphs
  plan_ = nullptr;  // `hold` dies with this frame
  return std::exchange(metrics_, SimMetrics{});
}

}  // namespace dooc::sim
