// Discrete-event execution backend: runs a TaskGraph on a *modeled* SSD
// testbed under virtual time, mirroring the real engine's hierarchical
// scheduling logic (affinity assignment, per-node ready sets, data-aware
// ordering, prefetch window) while charging modeled costs:
//
//  * durable arrays (sub-matrix files, initial vectors) load through a
//    shared GPFS modeled as max-min-fair flows over per-node client links
//    and an aggregate cap — the paper's "20 GB/s peak, 1.4-1.5 GB/s per
//    client" behaviour, with optional per-flow bandwidth noise standing in
//    for the "noticeable variation in read bandwidth" the paper reports;
//  * intermediate arrays travel node-to-node over InfiniBand links
//    (per-node egress/ingress caps);
//  * compute charges est_flops at a memory-bound SpMV rate; reductions
//    charge bytes at memory bandwidth; sync tasks charge a barrier cost
//    and move no data (control messages only);
//  * each node has a memory budget; durable arrays are reclaimed LRU,
//    intermediates are freed when their last reader completes.
//
// Used by the Table III / Table IV / Fig. 6 / Fig. 7 benches at paper scale
// (terabyte matrices) which cannot physically exist in this repository.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "common/fair_share.hpp"
#include "fault/fault_plan.hpp"
#include "obs/telemetry.hpp"
#include "sched/executor_core.hpp"
#include "sched/global_scheduler.hpp"
#include "sched/policy.hpp"
#include "sched/task.hpp"
#include "simcluster/flow_network.hpp"
#include "solver/array_creator.hpp"

namespace dooc::sim {

// Calibrated to Table III/IV behaviour (see EXPERIMENTS.md): the GPFS
// client and aggregate caps are read off the measured read bandwidths
// (1.5 GB/s at 1 node, ~18.5 GB/s plateau); the reduction throughput
// (`mem_bw`) and effective IB goodput model the 2012-era filter-stream
// middleware's per-buffer processing cost, calibrated from the 1-node
// non-overlapped fraction of Table III (sums of 2.4 GB per iteration
// explain its ~13% non-overlap only at ~0.25 GB/s effective throughput).
struct SimResources {
  int cores_per_node = 8;
  std::uint64_t node_memory = 20ull << 30;  ///< usable for arrays (of 24 GB)
  double node_read_cap = 1.5e9;             ///< GPFS client read, bytes/s
  double aggregate_read_cap = 18.6e9;       ///< GPFS total, bytes/s
  double ib_link = 0.15e9;                  ///< effective middleware goodput per link
  double compute_rate = 0.5e9;              ///< flops/s for SpMV (memory bound)
  double mem_bw = 0.25e9;                   ///< bytes/s for reductions (buffer handling)
  double task_overhead = 0.005;             ///< scheduling overhead per task, s
  double sync_cost = 0.5;                   ///< global synchronization cost, s
  double bw_noise = 0.10;                   ///< per-flow cap factor ~ U[1-noise, 1]
  /// Concurrent compute filters per node (the real nodes ran multiply and
  /// sum filters concurrently across their 8 cores).
  int compute_slots = 2;
  int prefetch_window = 2;
  std::uint64_t seed = 42;
  /// Per-node in-flight fetch budget: concurrent fetch bytes a node
  /// admits, arbitrated WDRR across jobs by the same FairShare the real
  /// storage layer uses (under virtual time). 0 = no budget (fetches admit
  /// freely, limited only by node memory).
  std::uint64_t inflight_load_budget = 0;
  /// WDRR knobs for the budget (budget_bytes is overridden by
  /// inflight_load_budget; starvation_ns counts virtual nanoseconds).
  FairShareConfig fair_share;
  /// Live-telemetry replay under virtual time: when telemetry.enabled,
  /// every node emits one TelemetryFrame per telemetry.interval_ms of
  /// *virtual* time into a hub, and the same Watchdog the coordinator runs
  /// is polled at each tick — so watchdog thresholds and straggler verdicts
  /// are deterministically testable (SimMetrics::health). Frames count the
  /// work of every arrived job. Disabled by default; telemetry charges no
  /// modeled cost.
  obs::telemetry::TelemetryConfig telemetry;
  /// Straggler injection: per-node multiplier on every task duration, of
  /// any job (e.g. {2, 10.0} makes node 2 ten times slower). Empty for the
  /// calibrated paper-scale benches.
  std::map<int, double> node_compute_factor;
  /// Missed-heartbeat drill: the node stops emitting telemetry frames
  /// after this many virtual seconds (the DES mirror of SIGSTOP — the node
  /// keeps computing, only its heartbeats vanish).
  std::map<int, double> node_telemetry_mute_after;
};

/// One tenant of a DES replay (see SimEngine::run_jobs). The graph must be
/// built, stay alive for the run, and not write any array another job
/// writes (namespace per-job arrays, e.g. jobs::namespaced).
struct SimJob {
  const sched::TaskGraph* graph = nullptr;
  double arrival = 0.0;  ///< virtual submit time, seconds
  double weight = 1.0;   ///< fair-share weight for fetch admission
  int priority = 0;      ///< strict between tiers, round-robin within one
};

/// Per-job outcome of a replay.
struct SimJobMetrics {
  std::uint32_t job = 0;   ///< index into the submitted vector
  double arrival = 0.0;
  double finish = 0.0;     ///< virtual time the job's last task settled
  double latency = 0.0;    ///< finish - arrival (queueing + service)
  double total_flops = 0.0;
  std::uint64_t tasks = 0;  ///< tasks completed (faulted tasks excluded)
};

struct SimMetrics {
  double makespan = 0;  ///< last job's finish
  double gpfs_busy = 0;  ///< seconds with at least one filesystem read active
  std::uint64_t disk_bytes = 0;
  std::uint64_t net_bytes = 0;
  double total_flops = 0;
  int nodes = 0;
  int cores_per_node = 8;
  std::vector<SimJobMetrics> jobs;  ///< one entry per submitted job, in order
  std::uint64_t deferred_fetches = 0;      ///< fetch admissions the WDRR arbiter queued
  std::uint64_t starvation_overrides = 0;  ///< aging-guard grants across all nodes
  std::uint64_t fetch_faults = 0;   ///< injected fetch failures (incl. the final ones)
  std::uint64_t fetch_retries = 0;  ///< fetches re-issued after virtual-time backoff
  std::uint64_t tasks_faulted = 0;  ///< tasks settled as Faulted (incl. poisoned successors)
  /// Watchdog verdicts raised under virtual time (telemetry runs only).
  std::vector<obs::telemetry::HealthEvent> health;
  std::uint64_t telemetry_frames = 0;  ///< frames emitted into the virtual hub

  [[nodiscard]] double read_bandwidth() const {
    return gpfs_busy > 0 ? static_cast<double>(disk_bytes) / gpfs_busy : 0.0;
  }
  /// Fraction of the runtime not covered by filesystem I/O — the paper's
  /// "non-overlapped time" column.
  [[nodiscard]] double non_overlapped_fraction() const {
    return makespan > 0 ? std::max(0.0, 1.0 - gpfs_busy / makespan) : 0.0;
  }
  [[nodiscard]] double gflops() const { return makespan > 0 ? total_flops / makespan * 1e-9 : 0.0; }
  [[nodiscard]] double cpu_hours_total() const {
    return static_cast<double>(nodes) * cores_per_node * makespan / 3600.0;
  }
};

/// Jain fairness index over per-job values ((Σx)² / (n·Σx²), 1 = fair).
[[nodiscard]] double jain(const std::vector<double>& xs);

// The DES shares the sched::ExecutorCore state machine with the real
// engine: staging decisions, policy ordering and the prefetch window come
// from the core; the simulator only charges virtual costs and reports
// residency through the ResidencyProbe interface. Where the real engine
// counts storage completions (note_input), the simulator re-probes after
// each virtual-time step (refresh) — flow completions have no per-input
// identity.
class SimEngine : private sched::ResidencyProbe {
 public:
  SimEngine(int num_nodes, SimResources resources,
            std::map<std::string, solver::VirtualArray> arrays);
  ~SimEngine();

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Execute one graph under virtual time: run_jobs with a single job
  /// arriving at t = 0 (weight 1, priority 0). Throws on deadlock (a task
  /// whose inputs can never materialize).
  SimMetrics run(const sched::TaskGraph& graph,
                 sched::LocalPolicy policy = sched::LocalPolicy::DataAware);

  /// Execute N jobs concurrently under virtual time, mirroring the
  /// multi-tenant engine — one ExecutorCore per job, shared compute slots
  /// iterated priority-desc/round-robin, fetch admission arbitrated per
  /// node by the same FairShare WDRR arbiter the real storage layer runs
  /// (SimResources::inflight_load_budget). Jobs arrive at their virtual
  /// arrival times; a job finishes when its core has settled every task
  /// (Done or Faulted), so an empty job finishes on arrival. The fault
  /// plan, telemetry replay and straggler factors apply to every job.
  /// Deterministic for fixed inputs.
  SimMetrics run_jobs(const std::vector<SimJob>& jobs,
                      sched::LocalPolicy policy = sched::LocalPolicy::DataAware);

  /// Replay a fault-injection schedule under virtual time: modeled fetches
  /// draw verdicts from the same FaultPlan the real storage layer consults
  /// (one op per completed fetch per node). Failed fetches re-issue after a
  /// virtual backoff; past the retry budget their consumers, in every job,
  /// retry / poison through their job's ExecutorCore. During an outage
  /// window a node starts no compute, issues no fetches and is skipped as
  /// a fetch source; its op clock ticks once per stalled scheduling round,
  /// so outage windows should be bounded (down=N@AFTER+OPS) or lifted via
  /// mark_up() — a permanent outage with tasks assigned to the node
  /// deadlocks the DES. While a plan is active, transient arrays are kept
  /// (as the real engine keeps them for producer re-runs). Null (plus
  /// unset DOOC_FAULTS) disables injection.
  void set_fault_plan(std::shared_ptr<fault::FaultPlan> plan) { fault_plan_ = std::move(plan); }

 private:
  struct NodeState;

  /// Runtime state of one submitted job.
  struct Job {
    SimJob spec;
    std::uint32_t idx = 0;  ///< index into the submitted vector (trace "job" arg)
    std::unique_ptr<sched::ExecutorCore> core;
    bool done = false;
    double finish = 0.0;
    double flops = 0.0;
    std::uint64_t tasks = 0;
  };

  /// Runtime state of one (virtual) array during a run.
  struct ArrayState {
    std::uint64_t bytes = 0;
    int home = 0;
    bool durable = false;
    /// Transient array whose last reader finished: dropped everywhere and
    /// never installed again.
    bool released = false;
    std::set<int> resident_on;
    std::set<int> fetching_on;
  };

  // ResidencyProbe (called by the core while picking/scoring candidates).
  std::uint64_t resident_input_bytes(int node, const sched::Task& task) override;
  bool inputs_resident(int node, const sched::Task& task) override;

  [[nodiscard]] double task_duration(const sched::Task& task) const;
  [[nodiscard]] bool arrived(const Job& job) const;
  /// Arrived, unfinished jobs in scheduling order: priority desc, index
  /// asc, rotated within the top tier by the node's round-robin cursor —
  /// the same rule as the engine's job snapshot.
  [[nodiscard]] std::vector<Job*> job_order(const NodeState& ns);
  /// Compute runs on the node or some arrived job has work queued there.
  [[nodiscard]] bool has_work(const NodeState& ns) const;
  /// Finish (at now_) every arrived job whose core has settled all its
  /// tasks. True once every job has finished.
  bool settle_jobs();
  void schedule_node(NodeState& ns);
  /// Fair-share admission in front of ensure_fetch (the DES mirror of
  /// StorageNode::schedule_fetch); without a budget it is ensure_fetch.
  void fetch(NodeState& ns, const Job& job, const std::string& array);
  /// Grant deferred fetches in WDRR order while the budget allows.
  void drain_deferred(NodeState& ns);
  void ensure_fetch(NodeState& ns, const std::string& array);
  /// A flow landed: trace it, release its budget, draw its fault verdict
  /// and make the array resident (now, after an injected delay, or never).
  void complete_flow(FlowId id);
  void make_resident(int node, const std::string& array);
  void evict_for(NodeState& ns, std::uint64_t incoming);
  void finish_task(NodeState& ns, Job& job, sched::TaskId task);
  /// Drop a transient array the core reported released from every node.
  void release_array(const std::string& array);
  /// A fetch of `array` onto `node` failed past the retry budget: report it
  /// to each job's core for every InputsPending consumer (retry or poison).
  void fault_consumers(int node, const std::string& array);

  int num_nodes_;
  SimResources res_;
  std::map<std::string, solver::VirtualArray> meta_;

  // Per-run state.
  std::vector<Job> jobs_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::map<std::string, ArrayState> arrays_;
  FlowNetwork net_;
  std::map<FlowId, std::pair<int, std::string>> flow_target_;  // flow -> (node, array)
  std::map<FlowId, double> flow_start_;  // virtual start time, for trace export
  std::set<FlowId> gpfs_flows_;
  /// (node, array) -> job charged for the in-flight fetch (budgeted runs).
  std::map<std::pair<int, std::string>, std::uint32_t> flow_job_;
  double now_ = 0;
  SimMetrics metrics_;
  std::shared_ptr<fault::FaultPlan> fault_plan_;
  fault::FaultPlan* plan_ = nullptr;  ///< active plan during a run (may be from_env)
  std::map<std::pair<int, std::string>, int> fetch_failures_;
  /// Backoff gates: (node, array) may not re-fetch before this virtual time.
  std::map<std::pair<int, std::string>, double> blocked_until_;
  /// Deferred residency from injected latency spikes: (when, node, array).
  std::vector<std::tuple<double, int, std::string>> arriving_;
  std::vector<ResourceId> gpfs_node_link_;
  ResourceId gpfs_aggregate_ = 0;
  std::vector<ResourceId> ib_egress_, ib_ingress_;
  std::uint64_t noise_state_ = 0;
};

}  // namespace dooc::sim
