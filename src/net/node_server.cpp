#include "net/node_server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spmv/kernels.hpp"

namespace dooc::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string where_tag(NodeId node) { return "net.node[" + std::to_string(node) + "]"; }

double quantile_of(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

}  // namespace

NodeServer::NodeServer(std::unique_ptr<Transport> transport, NodeServerConfig config)
    : transport_(std::move(transport)),
      config_(config),
      store_(config.durable_dir),
      pool_(static_cast<std::size_t>(std::max(1, config.exec_threads))) {
  telemetry_ = config.telemetry ? *config.telemetry : obs::telemetry::TelemetryConfig::from_env();
  exec_thread_ = std::thread([this] { exec_loop(); });
}

NodeServer::~NodeServer() {
  {
    std::lock_guard lock(exec_mutex_);
    exec_stop_ = true;
    exec_cv_.notify_all();
  }
  if (exec_thread_.joinable()) exec_thread_.join();
}

void NodeServer::run() {
  DOOC_LOG(Info, where_tag(config_.node))
      << "serving (pid " << ::getpid() << ", durable '" << config_.durable_dir << "')";
  if (telemetry_.enabled) next_telemetry_ = Clock::now();
  RecvEvent ev;
  while (!stop_.load(std::memory_order_relaxed)) {
    maybe_send_telemetry();
    if (!transport_->recv(ev, 100)) continue;
    switch (ev.kind) {
      case RecvEvent::Kind::PeerUp:
        DOOC_LOG(Debug, where_tag(config_.node)) << "peer " << ev.peer << " up";
        break;
      case RecvEvent::Kind::PeerDown:
        handle_peer_down(ev);
        break;
      case RecvEvent::Kind::Frame:
        if (ev.channel == Channel::Shutdown) {
          DOOC_LOG(Info, where_tag(config_.node)) << "shutdown requested";
          return;
        }
        handle_frame(ev);
        break;
    }
  }
}

void NodeServer::handle_peer_down(const RecvEvent& ev) {
  // A clean EOF is normal teardown (a peer got its Shutdown first); only
  // truncated/reset connections deserve a warning.
  if (ev.error == "peer closed connection") {
    DOOC_LOG(Info, where_tag(config_.node)) << "peer " << ev.peer << " down: " << ev.error;
  } else {
    DOOC_LOG(Warn, where_tag(config_.node)) << "peer " << ev.peer << " down: " << ev.error;
  }
  // Fail every fetch waiting on that peer: its task fails at once, naming
  // the dead home, instead of waiting out the full timeout.
  std::lock_guard lock(fetch_mutex_);
  for (auto it = pending_fetches_.begin(); it != pending_fetches_.end();) {
    if (it->second->home == ev.peer) {
      it->second->promise.set_value(
          {{}, "home node " + std::to_string(ev.peer) + " went down: " + ev.error, Clock::now(),
           /*home_down=*/true});
      it = pending_fetches_.erase(it);
    } else {
      ++it;
    }
  }
}

void NodeServer::handle_frame(const RecvEvent& ev) {
  switch (ev.channel) {
    case Channel::PutBlock: {
      const PutBlockMsg msg = PutBlockMsg::decode(ev.payload);
      store_.put(msg.name, msg.bytes, /*durable=*/true);
      return;
    }
    case Channel::Release: {
      for (const std::string& name : ReleaseMsg::decode(ev.payload).names) store_.erase(name);
      return;
    }
    case Channel::FetchReq: {
      const FetchReqMsg msg = FetchReqMsg::decode(ev.payload);
      DataBuffer bytes;
      if (store_.get(msg.name, bytes)) {
        fetches_served_.fetch_add(1, std::memory_order_relaxed);
        fetch_bytes_out_.fetch_add(bytes.size(), std::memory_order_relaxed);
        const FetchOkMsg rep{msg.name, std::move(bytes)};
        transport_->send(ev.peer, Channel::FetchOk, ev.tag, rep.encode());
      } else {
        const FetchFailMsg rep{msg.name, "block not stored on node " +
                                             std::to_string(config_.node)};
        transport_->send(ev.peer, Channel::FetchFail, ev.tag, rep.encode());
      }
      return;
    }
    case Channel::FetchOk: {
      const FetchOkMsg msg = FetchOkMsg::decode(ev.payload);
      std::lock_guard lock(fetch_mutex_);
      auto it = pending_fetches_.find(ev.tag);
      if (it == pending_fetches_.end()) return;  // fetch already timed out
      it->second->promise.set_value({msg.bytes, {}, Clock::now()});
      pending_fetches_.erase(it);
      return;
    }
    case Channel::FetchFail: {
      const FetchFailMsg msg = FetchFailMsg::decode(ev.payload);
      std::lock_guard lock(fetch_mutex_);
      auto it = pending_fetches_.find(ev.tag);
      if (it == pending_fetches_.end()) return;
      it->second->promise.set_value(
          {{}, "fetch '" + msg.name + "' failed: " + msg.error, Clock::now()});
      pending_fetches_.erase(it);
      return;
    }
    case Channel::ExecTask: {
      ExecTaskMsg msg = ExecTaskMsg::decode(ev.payload);
      std::lock_guard lock(exec_mutex_);
      exec_queue_.emplace_back(ev.tag, std::move(msg));
      exec_cv_.notify_one();
      return;
    }
    case Channel::ReportReq: {
      transport_->send(ev.peer, Channel::ReportRep, ev.tag, report().encode());
      return;
    }
    case Channel::Barrier: {
      // Frames on one connection are handled in order, and PutBlock stores
      // synchronously: every block sent before the barrier is stored now.
      transport_->send(ev.peer, Channel::BarrierAck, ev.tag, DataBuffer{});
      return;
    }
    default:
      DOOC_LOG(Warn, where_tag(config_.node))
          << "ignoring unexpected " << channel_name(ev.channel) << " frame from " << ev.peer;
      return;
  }
}

obs::telemetry::TelemetryFrame NodeServer::telemetry_frame() {
  obs::telemetry::TelemetryFrame f;
  f.node = config_.node;
  f.seq = telemetry_seq_;
  f.ts_ns = obs::TraceClock::now_ns();
  f.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(exec_mutex_);
    f.queue_depth = exec_queue_.size();
  }
  f.tasks_inflight = f.queue_depth + tasks_running_.load(std::memory_order_relaxed);
  f.faults = durable_fallbacks_.load(std::memory_order_relaxed);
  f.trace_dropped = obs::TraceSession::instance().dropped();
  // The full registry snapshot rides along: per-daemon it is naturally
  // node-scoped (this process only ever registers its own node id), so the
  // coordinator's aggregate keeps the per-node structure.
  f.metrics = obs::Metrics::instance().snapshot();
  const auto hit = f.metrics.entries.find(
      obs::MetricsSnapshot::Key{"storage.cache_hit", config_.node});
  if (hit != f.metrics.entries.end()) f.cache_hits = hit->second.count;
  const auto miss = f.metrics.entries.find(
      obs::MetricsSnapshot::Key{"storage.cache_miss", config_.node});
  if (miss != f.metrics.entries.end()) f.cache_misses = miss->second.count;
  return f;
}

void NodeServer::maybe_send_telemetry() {
  if (!telemetry_.enabled) return;
  const auto now = Clock::now();
  if (now < next_telemetry_) return;
  next_telemetry_ = now + std::chrono::milliseconds(telemetry_.interval_ms);
  const obs::telemetry::TelemetryFrame f = telemetry_frame();
  ++telemetry_seq_;
  // Best-effort: a coordinator that is gone (or not yet connected) just
  // drops the frame — telemetry must never wedge the serving loop.
  (void)transport_->send(kCoordinatorId, Channel::Telemetry, f.seq, f.encode());
}

void NodeServer::exec_loop() {
  for (;;) {
    std::pair<std::uint64_t, ExecTaskMsg> item;
    {
      std::unique_lock lock(exec_mutex_);
      exec_cv_.wait(lock, [&] { return exec_stop_ || !exec_queue_.empty(); });
      if (exec_queue_.empty()) return;  // stop and drained
      item = std::move(exec_queue_.front());
      exec_queue_.pop_front();
    }
    exec_task(item.first, item.second);
  }
}

std::optional<NodeServer::InFlight> NodeServer::send_fetch(const TaskInput& in) {
  InFlight f;
  f.tag = next_fetch_tag_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<PendingFetch>();
  pending->home = in.home;
  f.future = pending->promise.get_future();
  {
    std::lock_guard lock(fetch_mutex_);
    pending_fetches_.emplace(f.tag, pending);
  }
  f.sent = Clock::now();
  if (obs::trace_enabled()) f.sent_ns = obs::TraceClock::now_ns();
  const FetchReqMsg req{in.array};
  if (!transport_->send(in.home, Channel::FetchReq, f.tag, req.encode())) {
    std::lock_guard lock(fetch_mutex_);
    pending_fetches_.erase(f.tag);
    return std::nullopt;
  }
  fetches_issued_.fetch_add(1, std::memory_order_relaxed);
  return f;
}

DataBuffer NodeServer::await_fetch(InFlight& f, const TaskInput& in, int lane,
                                   TaskDoneMsg& done) {
  if (f.future.wait_until(f.sent + std::chrono::milliseconds(config_.fetch_timeout_ms)) !=
      std::future_status::ready) {
    std::lock_guard lock(fetch_mutex_);
    pending_fetches_.erase(f.tag);
    throw TransportError("fetch '" + in.array + "' from node " + std::to_string(in.home) +
                         " timed out");
  }
  FetchOutcome got = f.future.get();
  const auto round_trip = got.arrived - f.sent;
  if (f.sent_ns != 0) {
    obs::Event ev;
    ev.phase = obs::Phase::Complete;
    ev.cat = obs::intern("fetch");
    ev.name = obs::intern(in.array);
    ev.pid = config_.node;
    ev.tid = 100 + lane % 16;
    ev.ts_ns = f.sent_ns;
    ev.dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(round_trip).count());
    ev.nargs = 2;
    ev.arg_name[0] = obs::intern("bytes");
    ev.arg_val[0] = got.bytes.size();
    ev.arg_name[1] = obs::intern("home");
    ev.arg_val[1] = static_cast<std::uint64_t>(in.home);
    obs::TraceSession::instance().emit(ev);
  }
  if (!got.error.empty()) {  // FetchFail / home peer down
    if (got.home_down) done.lost_home = in.home;
    throw IoError("input '" + in.array + "' unavailable: " + got.error);
  }
  const double seconds = std::chrono::duration<double>(round_trip).count();
  fetch_bytes_in_.fetch_add(got.bytes.size(), std::memory_order_relaxed);
  {
    std::lock_guard lock(fetch_hist_mutex_);
    fetch_seconds_.push_back(seconds);
  }
  obs::Metrics::instance().histogram("net.fetch_seconds", config_.node).add(seconds);
  return std::move(got.bytes);
}

std::vector<DataBuffer> NodeServer::acquire_inputs(const ExecTaskMsg& msg, TaskDoneMsg& done) {
  const std::uint64_t out_bytes = msg.outputs.empty() ? 0 : msg.outputs[0].bytes;
  std::vector<std::size_t> reads;
  for (std::size_t i = 0; i < msg.inputs.size(); ++i) {
    if (kernel_reads(msg.kind, i, msg.inputs[i].bytes, out_bytes)) reads.push_back(i);
  }
  std::vector<DataBuffer> inputs(reads.size());
  std::vector<std::optional<InFlight>> flights(reads.size());
  try {
    for (std::size_t r = 0; r < reads.size(); ++r) {
      const TaskInput& in = msg.inputs[reads[r]];
      if (store_.get(in.array, inputs[r])) continue;
      if (in.home == kDurableOnly) {
        // A deployed block whose home died: the durable file is its copy.
        inputs[r] = store_.load_durable(in.array);
        durable_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (in.home == config_.node) {
        throw IoError("input '" + in.array + "' is not stored on its home node " +
                      std::to_string(in.home));
      }
      flights[r] = send_fetch(in);
      if (!flights[r]) {
        done.lost_home = in.home;
        throw IoError("input '" + in.array + "' unavailable: home node " +
                      std::to_string(in.home) + " is not connected");
      }
    }
    for (std::size_t r = 0; r < reads.size(); ++r) {
      if (!flights[r]) continue;
      const TaskInput& in = msg.inputs[reads[r]];
      inputs[r] = await_fetch(*flights[r], in, static_cast<int>(reads[r]), done);
      flights[r].reset();
      done.fetched_bytes += inputs[r].size();
    }
  } catch (...) {
    // The task fails here: nothing will wait on the fetches still out.
    std::lock_guard lock(fetch_mutex_);
    for (const auto& f : flights) {
      if (f) pending_fetches_.erase(f->tag);
    }
    throw;
  }
  return inputs;
}

void NodeServer::exec_task(std::uint64_t task_id, const ExecTaskMsg& msg) {
  TaskDoneMsg done;
  const auto t0 = Clock::now();
  tasks_running_.fetch_add(1, std::memory_order_relaxed);
  try {
    std::optional<obs::Span> span;
    if (obs::trace_enabled()) span.emplace("task", msg.name, config_.node);

    const std::vector<DataBuffer> inputs = acquire_inputs(msg, done);

    std::vector<DataBuffer> outputs;
    for (const TaskOutput& out : msg.outputs) {
      outputs.emplace_back(static_cast<std::size_t>(out.bytes));
    }

    if (msg.kind == "multiply") {
      DOOC_REQUIRE(inputs.size() == 2 && outputs.size() == 1, "multiply wants 2 inputs, 1 output");
      spmv::multiply_parallel(spmv::CsrView::from_bytes(inputs[0].span()),
                              inputs[1].as<const double>(), outputs[0].as<double>(), pool_);
    } else if (msg.kind == "sum" || msg.kind == "aggregate") {
      DOOC_REQUIRE(outputs.size() == 1, "sum wants 1 output");
      // The inputs shaped like the output, in input order.
      std::vector<std::span<const double>> parts;
      for (const DataBuffer& in : inputs) parts.push_back(in.as<const double>());
      DOOC_REQUIRE(!parts.empty(), "sum has no vector-shaped inputs");
      spmv::sum_vectors(std::span<const std::span<const double>>(parts), outputs[0].as<double>(),
                        pool_);
    } else if (msg.kind == "sync") {
      for (DataBuffer& out : outputs) std::fill(out.span().begin(), out.span().end(), std::byte{0});
    } else {
      throw InvalidArgument("task '" + msg.name + "': unknown kind '" + msg.kind + "'");
    }

    // Memory only: if this node dies, the coordinator re-runs the task.
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      store_.put(msg.outputs[i].array, std::move(outputs[i]), /*durable=*/false);
    }
    done.ok = true;
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    done.ok = false;
    done.error = e.what();
    DOOC_LOG(Error, where_tag(config_.node)) << "task '" << msg.name << "' failed: " << e.what();
  }
  tasks_running_.fetch_sub(1, std::memory_order_relaxed);
  done.exec_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  // Microseconds keep the log2 buckets fine-grained where task durations
  // actually land; the telemetry watchdog's p99-vs-median straggler test
  // reads this per-node distribution out of the frame snapshot.
  obs::Metrics::instance().histogram("net.exec_us", config_.node).add(done.exec_seconds * 1e6);
  transport_->send(kCoordinatorId, Channel::TaskDone, task_id, done.encode());
}

NodeReportMsg NodeServer::report() const {
  NodeReportMsg rep;
  rep.os_pid = static_cast<std::uint64_t>(::getpid());
  rep.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  const BlockStore::Counters sc = store_.counters();
  rep.blocks_stored = sc.blocks_stored;
  rep.bytes_stored = sc.bytes_stored;
  rep.blocks_resident = sc.blocks_resident;
  rep.bytes_resident = sc.bytes_resident;
  rep.fetches_served = fetches_served_.load(std::memory_order_relaxed);
  rep.fetch_bytes_out = fetch_bytes_out_.load(std::memory_order_relaxed);
  rep.fetches_issued = fetches_issued_.load(std::memory_order_relaxed);
  rep.fetch_bytes_in = fetch_bytes_in_.load(std::memory_order_relaxed);
  rep.durable_fallbacks = durable_fallbacks_.load(std::memory_order_relaxed);
  const TransportCounters tc = transport_->counters();
  rep.frames_sent = tc.frames_sent;
  rep.frames_received = tc.frames_received;
  rep.bytes_sent = tc.bytes_sent;
  rep.bytes_received = tc.bytes_received;
  {
    std::lock_guard lock(fetch_hist_mutex_);
    rep.fetch_p50_s = quantile_of(fetch_seconds_, 0.50);
    rep.fetch_p99_s = quantile_of(fetch_seconds_, 0.99);
    rep.fetch_max_s = fetch_seconds_.empty()
                          ? 0.0
                          : *std::max_element(fetch_seconds_.begin(), fetch_seconds_.end());
  }
  rep.trace_path = obs::TraceSession::instance().path();
  return rep;
}

std::unique_ptr<SocketTransport> make_node_transport(const Manifest& manifest, NodeId node,
                                                     SocketTransportConfig config,
                                                     int connect_deadline_ms) {
  DOOC_REQUIRE(node >= 0 && node < manifest.num_nodes(), "node id outside manifest");
  config.self = node;
  auto transport = SocketTransport::listen(manifest.nodes[node], config);
  for (NodeId peer = 0; peer < node; ++peer) {
    if (!transport->connect_peer(peer, manifest.nodes[peer], connect_deadline_ms)) {
      throw TransportError("node " + std::to_string(node) + " cannot reach peer " +
                           std::to_string(peer) + " at " + manifest.nodes[peer].to_string());
    }
  }
  return transport;
}

}  // namespace dooc::net
