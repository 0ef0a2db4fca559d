#include "net/coordinator.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "obs/clock.hpp"
#include "sched/executor_core.hpp"
#include "sched/global_scheduler.hpp"

namespace dooc::net {

namespace {

using Clock = std::chrono::steady_clock;
constexpr const char* kWhere = "net.coord";

bool reads(const sched::Task& task, std::size_t i) {
  return kernel_reads(task.kind, i, task.inputs[i].length,
                      task.outputs.empty() ? 0 : task.outputs[0].length);
}

/// Daemons fetch their own inputs, so to the core an input is resident
/// unless the kernel reads it and it is gone (lost with a node, or
/// released): the task waits for the re-run of its producer.
class RemoteInputs final : public sched::ResidencyProbe {
 public:
  explicit RemoteInputs(const std::set<std::string>& gone) : gone_(gone) {}
  std::uint64_t resident_input_bytes(int, const sched::Task&) override { return 0; }
  bool inputs_resident(int, const sched::Task& task) override {
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      if (gone_.count(task.inputs[i].array) != 0 && reads(task, i)) return false;
    }
    return true;
  }

 private:
  const std::set<std::string>& gone_;
};

/// Placement input: deployed arrays live where put_block put them.
class HomeLocator final : public sched::DataLocator {
 public:
  explicit HomeLocator(const std::map<std::string, NodeId>& homes) : homes_(homes) {}
  int home_of(const storage::ArrayName& name) const override {
    const auto it = homes_.find(name);
    return it == homes_.end() ? -1 : it->second;
  }

 private:
  const std::map<std::string, NodeId>& homes_;
};

}  // namespace

Coordinator::Coordinator(Transport& transport, CoordinatorConfig config)
    : transport_(transport), config_(config), store_(config.durable_dir) {
  telemetry_ =
      config_.telemetry ? *config_.telemetry : obs::telemetry::TelemetryConfig::from_env();
  if (telemetry_.enabled) {
    hub_ = std::make_unique<obs::telemetry::TelemetryHub>(telemetry_.history);
    watchdog_ = std::make_unique<obs::telemetry::Watchdog>(telemetry_);
  }
}

void Coordinator::register_array(const std::string& name, NodeId home) { homes_[name] = home; }

NodeId Coordinator::home_of(const std::string& name) const {
  const auto it = homes_.find(name);
  DOOC_REQUIRE(it != homes_.end(), "array '" + name + "' has no known home");
  return it->second;
}

bool Coordinator::put_block(NodeId home, const std::string& name, DataBuffer bytes) {
  const PutBlockMsg msg{name, std::move(bytes)};
  if (!transport_.send(home, Channel::PutBlock, 0, msg.encode())) return false;
  register_array(name, home);
  return true;
}

void Coordinator::refresh_alive() {
  alive_.clear();
  for (const NodeId id : transport_.peers()) {
    if (id >= 0 && id < config_.num_nodes && dead_.count(id) == 0) alive_.insert(id);
  }
}

bool Coordinator::pump(RecvEvent& ev, int timeout_ms) {
  poll_watchdog();
  if (!transport_.recv(ev, timeout_ms)) {
    poll_watchdog();  // suspicion must advance during total silence too
    return false;
  }
  if (ev.kind == RecvEvent::Kind::PeerUp) {
    if (ev.peer >= 0 && ev.peer < config_.num_nodes && dead_.count(ev.peer) == 0) {
      alive_.insert(ev.peer);
    }
  } else if (ev.kind == RecvEvent::Kind::PeerDown) {
    DOOC_LOG(Warn, kWhere) << "node " << ev.peer << " down: " << ev.error;
    alive_.erase(ev.peer);
    dead_.insert(ev.peer);
  } else if (ev.kind == RecvEvent::Kind::Frame && ev.channel == Channel::Telemetry) {
    if (hub_) {
      try {
        hub_->add(obs::telemetry::TelemetryFrame::decode(ev.payload),
                  obs::TraceClock::now_ns());
      } catch (const Error& e) {
        DOOC_LOG(Warn, kWhere) << "bad telemetry frame from node " << ev.peer << ": "
                               << e.what();
      }
    }
    // Returned as-is: every caller filters on the channel it waits for.
  }
  return true;
}

void Coordinator::poll_watchdog() {
  if (!watchdog_) return;
  const std::uint64_t now = obs::TraceClock::now_ns();
  if (now < next_watchdog_ns_) return;
  next_watchdog_ns_ = now + telemetry_.interval_ns();
  std::vector<obs::telemetry::HealthEvent> events;
  {
    std::lock_guard lock(health_mutex_);
    events = watchdog_->poll(*hub_, now);
    for (const auto& hev : events) health_.push_back(hev);
  }
  for (const auto& hev : events) {
    obs::telemetry::emit_health_event(hev);
    if (hev.kind == obs::telemetry::HealthKind::Recovered) {
      DOOC_LOG(Info, kWhere) << "health: " << hev.to_text();
    } else {
      DOOC_LOG(Warn, kWhere) << "health: " << hev.to_text();
    }
  }
}

std::vector<obs::telemetry::HealthEvent> Coordinator::health_events() const {
  std::lock_guard lock(health_mutex_);
  return health_;
}

std::set<NodeId> Coordinator::suspected_nodes() const {
  std::lock_guard lock(health_mutex_);
  if (!watchdog_) return {};
  return watchdog_->suspected();
}

std::string Coordinator::telemetry_prometheus() const {
  if (!hub_) return {};
  obs::MetricsSnapshot agg = hub_->aggregate();
  {
    std::lock_guard lock(health_mutex_);
    for (const auto& hev : health_) {
      auto& e = agg.entries[obs::MetricsSnapshot::Key{
          std::string("health.") + obs::telemetry::health_kind_name(hev.kind), hev.node}];
      e.kind = obs::MetricKind::Counter;
      e.count += 1;
    }
  }
  return agg.to_prometheus();
}

ExecTaskMsg Coordinator::exec_msg(const sched::Task& task) const {
  ExecTaskMsg msg;
  msg.name = task.name;
  msg.kind = task.kind;
  for (const storage::Interval& iv : task.inputs) {
    auto it = homes_.find(iv.array);
    DOOC_REQUIRE(it != homes_.end(), "task input '" + iv.array + "' has no known home");
    msg.inputs.push_back(TaskInput{iv.array, iv.length, it->second});
  }
  for (const storage::Interval& iv : task.outputs) {
    msg.outputs.push_back(TaskOutput{iv.array, iv.length});
  }
  return msg;
}

RunResult Coordinator::run(const sched::TaskGraph& graph) {
  DOOC_REQUIRE(graph.built(), "coordinator needs a built graph");
  const auto t0 = Clock::now();
  RunResult result;
  result.tasks_total = graph.size();
  refresh_alive();
  // Deploy barrier: PutBlock has no ack of its own, so dispatch waits until
  // every live daemon has handled (durably stored) all the blocks sent to
  // it. A daemon that dies meanwhile drops out of alive_ like at any time.
  const std::map<NodeId, DataBuffer> acked =
      round_trip(Channel::Barrier, Channel::BarrierAck, config_.idle_timeout_ms);
  for (const NodeId node : alive_) {
    if (acked.count(node) == 0) {
      result.error = "deploy barrier: node " + std::to_string(node) + " did not acknowledge";
      return result;
    }
  }

  /// Task outputs with no copy in the cluster: lost with their home, or
  /// released once no task read them again.
  std::set<std::string> gone;
  RemoteInputs probe(gone);
  sched::CoreConfig core_cfg;
  core_cfg.policy = sched::LocalPolicy::Fifo;
  sched::ExecutorCore core(
      graph, sched::GlobalScheduler(config_.num_nodes).assign(graph, HomeLocator(homes_)),
      config_.num_nodes, core_cfg, &probe);

  const auto finish_result = [&](bool ok, std::string error) {
    result.ok = ok;
    result.error = std::move(error);
    result.tasks_executed = core.completed();
    result.makespan_s = std::chrono::duration<double>(Clock::now() - t0).count();
    result.dead_nodes.assign(dead_.begin(), dead_.end());
    return result;
  };

  // A gone array is needed while a task whose kernel reads it is not Done,
  // or when no task (all of them successors of its producer) lists it: a
  // final result the caller gathers.
  const auto needed = [&](sched::TaskId producer, const std::string& array) {
    bool listed = false;
    for (const sched::TaskId t : graph.successors(producer)) {
      const sched::Task& task = graph.task(t);
      for (std::size_t i = 0; i < task.inputs.size(); ++i) {
        if (task.inputs[i].array != array) continue;
        listed = true;
        if (reads(task, i) && core.state(t) != sched::TaskState::Done) return true;
      }
    }
    return !listed;
  };
  // Once per dead node: its deployed blocks survive as durable files, its
  // task outputs are gone. Resurrect the Done producer of each gone array
  // still needed, whose gone inputs (lost or released) are then needed in
  // turn, down to deployed blocks. Then move the unsettled tasks of every
  // dead node, resurrected ones included, to the live nodes.
  std::set<NodeId> recovered;
  const auto recover = [&](NodeId node) {
    if (!recovered.insert(node).second) return;
    std::vector<std::string> work;
    for (auto& [name, home] : homes_) {
      if (home != node) continue;
      if (graph.writer_of({name, 0, 1}) == sched::kInvalidTask) {
        home = kDurableOnly;
      } else {
        gone.insert(name);
        work.push_back(name);
      }
    }
    while (!work.empty()) {
      const std::string array = std::move(work.back());
      work.pop_back();
      const sched::TaskId producer = graph.writer_of({array, 0, 1});
      // A producer that is not Done re-homes the array when it finishes.
      if (!needed(producer, array) || !core.resurrect(producer)) continue;
      result.rederived += 1;
      const sched::Task& task = graph.task(producer);
      DOOC_LOG(Warn, kWhere) << "re-running task '" << task.name << "' to re-derive '" << array
                             << "', gone from node " << homes_.at(array);
      for (std::size_t i = 0; i < task.inputs.size(); ++i) {
        if (gone.count(task.inputs[i].array) != 0 && reads(task, i)) {
          work.push_back(task.inputs[i].array);
        }
      }
    }
    if (alive_.empty()) return;  // the run fails before the next dispatch
    // A resurrected producer re-joins the queue of the node that first ran
    // it, which may have died earlier: vacate every dead node, not just
    // this one.
    const std::vector<int> survivors(alive_.begin(), alive_.end());
    for (const NodeId gone : recovered) {
      for (const sched::TaskId id : core.reassign(gone, survivors)) {
        result.requeued_after_death += 1;
        DOOC_LOG(Warn, kWhere) << "re-queueing task '" << graph.task(id).name
                               << "' from dead node " << gone;
      }
    }
  };
  for (NodeId node = 0; node < config_.num_nodes; ++node) {
    if (alive_.count(node) == 0) recover(node);
  }
  const auto lose_node = [&](NodeId node) {
    alive_.erase(node);
    dead_.insert(node);
    recover(node);
  };

  // The core reports a transient array once its last reader is Done: its
  // home drops it, one Release frame per home per finish, and the array is
  // gone like one lost with a node. An array that a resurrected task still
  // reads stays.
  const auto release = [&](const std::vector<std::string>& arrays) {
    std::map<NodeId, ReleaseMsg> batches;
    for (const std::string& array : arrays) {
      if (needed(graph.writer_of({array, 0, 1}), array)) continue;
      gone.insert(array);
      result.released += 1;
      const NodeId home = homes_.at(array);
      if (alive_.count(home) != 0) batches[home].names.push_back(array);
    }
    for (const auto& [home, msg] : batches) {
      // A failed send is a death its PeerDown reports.
      if (transport_.send(home, Channel::Release, 0, msg.encode())) result.release_frames += 1;
    }
  };

  // Fill every live node up to kMaxInflightPerNode.
  const auto dispatch = [&] {
    for (const NodeId node : std::vector<NodeId>(alive_.begin(), alive_.end())) {
      while (alive_.count(node) != 0 && core.running(node).size() < kMaxInflightPerNode) {
        const sched::TaskId id = core.next_to_stage(node, sched::StageSelect::Resident).task;
        if (id == sched::kInvalidTask) break;
        core.stage(id, 0);
        core.take_runnable(node);
        if (!transport_.send(node, Channel::ExecTask, id, exec_msg(graph.task(id)).encode())) {
          // Raced with a death the event loop has not surfaced yet; its
          // PeerDown wakes the next pass, which sends the moved tasks.
          DOOC_LOG(Warn, kWhere) << "dispatch to node " << node << " failed (peer gone)";
          lose_node(node);
        }
      }
    }
  };

  auto idle_deadline = Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);
  while (!core.all_done()) {
    if (alive_.empty()) return finish_result(false, "no live worker nodes remain");
    dispatch();
    RecvEvent ev;
    if (!pump(ev, 100)) {
      if (Clock::now() >= idle_deadline) {
        return finish_result(false, "cluster stalled: no events for " +
                                        std::to_string(config_.idle_timeout_ms) + "ms with " +
                                        std::to_string(core.completed()) + "/" +
                                        std::to_string(graph.size()) + " tasks done");
      }
      continue;
    }
    idle_deadline = Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);

    if (ev.kind == RecvEvent::Kind::PeerDown) {
      if (ev.peer >= 0 && ev.peer < config_.num_nodes) lose_node(ev.peer);
      continue;
    }
    if (ev.kind != RecvEvent::Kind::Frame || ev.channel != Channel::TaskDone) continue;

    // Only the live node the core shows running the task may settle it;
    // anything else is a stale report from before a re-queue.
    const auto id = static_cast<sched::TaskId>(ev.tag);
    if (alive_.count(ev.peer) == 0 || id >= graph.size()) continue;
    const std::vector<sched::TaskId> on_peer = core.running(ev.peer);
    if (std::find(on_peer.begin(), on_peer.end(), id) == on_peer.end()) continue;

    const TaskDoneMsg done = TaskDoneMsg::decode(ev.payload);
    if (!done.ok) {
      // The daemon saw an input's home die before this loop did: recover
      // that node first, so the retry waits for the re-derived input.
      if (done.lost_home >= 0 && done.lost_home < config_.num_nodes) lose_node(done.lost_home);
      std::vector<sched::TaskId> poisoned;
      if (core.fault(id, &poisoned) == sched::ExecutorCore::FaultAction::Poisoned) {
        return finish_result(false, "task '" + graph.task(id).name + "' failed " +
                                        std::to_string(core.retries(id)) +
                                        " times: " + done.error);
      }
      result.retries += 1;
      DOOC_LOG(Warn, kWhere) << "retrying task '" << graph.task(id).name << "': " << done.error;
      continue;
    }

    // The node that executed the task now homes its outputs.
    for (const storage::Interval& iv : graph.task(id).outputs) {
      homes_[iv.array] = ev.peer;
      gone.erase(iv.array);
    }
    std::vector<std::pair<int, sched::TaskId>> newly_assigned;
    std::vector<std::string> released;
    core.finish(id, newly_assigned, &released);
    release(released);
    if (progress_hook) progress_hook(core.completed());
  }

  result.health_events = health_events();
  const std::set<NodeId> suspects = suspected_nodes();
  result.suspected_nodes.assign(suspects.begin(), suspects.end());
  return finish_result(true, {});
}

DataBuffer Coordinator::fetch_block(const std::string& name) {
  auto it = homes_.find(name);
  DOOC_REQUIRE(it != homes_.end(), "fetch of unknown array '" + name + "'");
  const NodeId home = it->second;
  // A deployed block whose home died: the durable file is its copy.
  if (home == kDurableOnly) return store_.load_durable(name);
  const std::uint64_t tag = next_tag_++;
  if (alive_.count(home) != 0 &&
      transport_.send(home, Channel::FetchReq, tag, FetchReqMsg{name}.encode())) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(config_.fetch_timeout_ms);
    RecvEvent ev;
    while (Clock::now() < deadline) {
      if (!pump(ev, 100)) continue;
      if (ev.kind == RecvEvent::Kind::PeerDown && ev.peer == home) break;
      if (ev.kind != RecvEvent::Kind::Frame || ev.tag != tag) continue;
      if (ev.channel == Channel::FetchOk) return FetchOkMsg::decode(ev.payload).bytes;
      if (ev.channel == Channel::FetchFail) break;
    }
  }
  // Task outputs are not checkpointed: they go with their home.
  throw IoError("cannot fetch '" + name + "' from node " + std::to_string(home));
}

std::map<NodeId, DataBuffer> Coordinator::round_trip(Channel request, Channel reply,
                                                     int timeout_ms) {
  std::map<std::uint64_t, NodeId> outstanding;
  for (const NodeId id : alive_) {
    const std::uint64_t tag = next_tag_++;
    if (transport_.send(id, request, tag, DataBuffer{})) outstanding[tag] = id;
  }
  std::map<NodeId, DataBuffer> replies;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  RecvEvent ev;
  while (!outstanding.empty() && Clock::now() < deadline) {
    if (!pump(ev, 100)) continue;
    if (ev.kind == RecvEvent::Kind::PeerDown) {
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        it = it->second == ev.peer ? outstanding.erase(it) : std::next(it);
      }
      continue;
    }
    if (ev.kind != RecvEvent::Kind::Frame || ev.channel != reply) continue;
    auto it = outstanding.find(ev.tag);
    if (it == outstanding.end()) continue;
    replies[it->second] = ev.payload;
    outstanding.erase(it);
  }
  return replies;
}

std::map<NodeId, NodeReportMsg> Coordinator::collect_reports() {
  refresh_alive();
  std::map<NodeId, NodeReportMsg> reports;
  for (const auto& [id, payload] :
       round_trip(Channel::ReportReq, Channel::ReportRep, config_.report_timeout_ms)) {
    reports[id] = NodeReportMsg::decode(payload);
  }
  return reports;
}

void Coordinator::shutdown_cluster() {
  refresh_alive();
  for (const NodeId id : alive_) {
    (void)transport_.send(id, Channel::Shutdown, 0, DataBuffer{});
  }
}

}  // namespace dooc::net
