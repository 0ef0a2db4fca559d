// The cluster-side half of the two-level scheduler (paper §III-C) for the
// wire backend: the coordinator owns the built sched::TaskGraph, tracks
// where every array lives, and dispatches tasks to worker nodes as
// ExecTask frames; NodeServer binds the kernels and fetches the inputs.
//
// It drives the components the in-process engine and the DES share:
// placement is sched::GlobalScheduler's (SpmvJob pins every task), and the
// lifecycle — dependencies, per-node (group, seq) order, retries — is a
// sched::ExecutorCore. run() starts with a deploy barrier: it dispatches
// only after every live daemon acks a Barrier frame, which a daemon handles
// after every PutBlock sent before it. With at most kMaxInflightPerNode
// tasks in flight per node, runs of one deployment repeat placement and
// traffic exactly.
// A failed TaskDone is a core fault(). A good one is a core finish(): the
// transient arrays whose last reader that was are released, one Release
// frame per home, and the home drops them (paper §III-B reclamation), so a
// daemon ends a run holding its deployed blocks and the final iterates.
// A node death (PeerDown, failed send, or a failed TaskDone naming a dead
// input home) re-homes its deployed blocks to kDurableOnly and hands its
// task outputs to the core's one recovery rule, ExecutorCore::rederive
// (lineage: arrays are write-once), with net::kernel_reads deciding which
// listed inputs a task reads. The core re-runs the producers still needed,
// recursively through released inputs, and holds their readers back until
// the re-runs finish; the coordinator then reassign()s the dead node's
// unsettled tasks and sends Release for exactly what finish() reports.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "net/block_store.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"
#include "sched/task.hpp"

namespace dooc::net {

struct CoordinatorConfig {
  int num_nodes = 1;
  /// Shared durable directory of deployed blocks.
  std::string durable_dir;
  int fetch_timeout_ms = 10000;
  int report_timeout_ms = 10000;
  /// run() aborts when no event arrives for this long (hung cluster).
  int idle_timeout_ms = 60000;
  /// Live telemetry policy (nullopt: DOOC_TELEMETRY). When enabled, a
  /// rolling TelemetryHub of the workers' frames feeds the health watchdog
  /// on every pump: missed heartbeats become dead-node *suspicion*
  /// (suspected_nodes(), HealthEvents) well before a TCP timeout turns into
  /// a PeerDown. Scheduling stays driven by PeerDown, so runs stay
  /// deterministic.
  std::optional<obs::telemetry::TelemetryConfig> telemetry;
};

struct RunResult {
  bool ok = false;
  std::string error;
  std::uint64_t tasks_total = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t retries = 0;               ///< failed-task re-dispatches
  std::uint64_t requeued_after_death = 0;  ///< in-flight tasks re-queued off a dead node
  std::uint64_t rederived = 0;  ///< Done producers re-run to re-derive gone outputs
  std::uint64_t released = 0;        ///< transient arrays dropped by their homes
  std::uint64_t release_frames = 0;  ///< Release frames that carried them
  double makespan_s = 0.0;
  std::vector<NodeId> dead_nodes;
  /// Watchdog verdicts raised during the run (telemetry enabled only).
  std::vector<obs::telemetry::HealthEvent> health_events;
  /// Nodes with an active missed-heartbeat suspicion at run end.
  std::vector<NodeId> suspected_nodes;
};

class Coordinator {
 public:
  /// ExecTask frames outstanding per node.
  static constexpr std::size_t kMaxInflightPerNode = 4;

  Coordinator(Transport& transport, CoordinatorConfig config);

  /// Record a pre-existing array (deployed block) and where it lives.
  void register_array(const std::string& name, NodeId home);

  /// Where `name` lives now (kDurableOnly: a deployed block whose home
  /// died). Throws for an array the coordinator has never seen.
  [[nodiscard]] NodeId home_of(const std::string& name) const;

  /// Ship a deployed block to its home node (which also stores it
  /// durably) and register it. Returns false if the node is not connected.
  bool put_block(NodeId home, const std::string& name, DataBuffer bytes);

  /// Execute the built graph to completion (or failure). Single-threaded:
  /// drives dispatch and event handling from the calling thread.
  RunResult run(const sched::TaskGraph& graph);

  /// Called after every completed task with the completion count — lets a
  /// harness kill a process mid-run at a deterministic point.
  std::function<void(std::uint64_t)> progress_hook;

  /// Pull one array's bytes back to the caller from its home node, or
  /// from the durable directory for a deployed block whose home died.
  /// Throws IoError when that fails.
  [[nodiscard]] DataBuffer fetch_block(const std::string& name);

  /// One ReportReq round over the live workers.
  [[nodiscard]] std::map<NodeId, NodeReportMsg> collect_reports();

  /// Send Shutdown to every live worker.
  void shutdown_cluster();

  /// Watchdog verdicts so far (thread-safe copy; scrape endpoints read
  /// this from their own thread).
  [[nodiscard]] std::vector<obs::telemetry::HealthEvent> health_events() const;
  /// Nodes currently under missed-heartbeat suspicion.
  [[nodiscard]] std::set<NodeId> suspected_nodes() const;
  /// Prometheus text of the hub aggregate plus per-kind health counters —
  /// the coordinator-side scrape endpoint's provider. Empty when telemetry
  /// is off.
  [[nodiscard]] std::string telemetry_prometheus() const;

 private:
  /// recv + peer bookkeeping (alive_/dead_ upkeep). Returns false on
  /// timeout.
  bool pump(RecvEvent& ev, int timeout_ms);
  /// Time-gated watchdog evaluation; runs on every pump (including
  /// timeouts) so suspicion advances even when the cluster is silent.
  void poll_watchdog();
  void refresh_alive();
  /// Send `request` to every live node and collect each one's `reply`
  /// (same tag) until all arrive, a node goes down, or `timeout_ms` ends.
  std::map<NodeId, DataBuffer> round_trip(Channel request, Channel reply, int timeout_ms);
  [[nodiscard]] ExecTaskMsg exec_msg(const sched::Task& task) const;

  Transport& transport_;
  CoordinatorConfig config_;
  BlockStore store_;  ///< durable reads of deployed blocks only
  std::map<std::string, NodeId> homes_;  ///< array -> home node (or kDurableOnly)
  std::set<NodeId> alive_;
  std::set<NodeId> dead_;
  std::uint64_t next_tag_ = 1;

  obs::telemetry::TelemetryConfig telemetry_;
  std::unique_ptr<obs::telemetry::TelemetryHub> hub_;
  std::unique_ptr<obs::telemetry::Watchdog> watchdog_;
  std::uint64_t next_watchdog_ns_ = 0;
  mutable std::mutex health_mutex_;  ///< guards health_ + watchdog_ state
  std::vector<obs::telemetry::HealthEvent> health_;
};

}  // namespace dooc::net
