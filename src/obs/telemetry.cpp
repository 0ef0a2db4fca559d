#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/serialize.hpp"
#include "common/spec.hpp"
#include "obs/trace.hpp"

namespace dooc::obs::telemetry {

namespace {

/// Decode-side sanity caps. A frame comes off a socket: every count is
/// checked against these (and against the bytes actually remaining) before
/// anything is allocated.
constexpr std::uint64_t kMaxSnapshotEntries = 4096;
constexpr std::uint64_t kMaxNameBytes = 512;
constexpr std::uint64_t kMaxJobs = 4096;

[[noreturn]] void malformed(const std::string& what) {
  throw IoError("malformed telemetry frame: " + what);
}

std::string get_name(BinaryReader& r, const char* what) {
  const auto len = r.get<std::uint64_t>();
  if (len > kMaxNameBytes || len > r.remaining()) {
    malformed(std::string(what) + ": name length exceeds payload");
  }
  std::string s(static_cast<std::size_t>(len), '\0');
  if (len != 0) r.get_raw(s.data(), static_cast<std::size_t>(len));
  return s;
}

void put_hist(BinaryWriter& w, const Log2Histogram& h) {
  const RunningStats& st = h.stats();
  w.put<std::uint64_t>(st.count());
  w.put<double>(st.mean());
  w.put<double>(st.m2());
  w.put<double>(st.sum());
  w.put<double>(st.min());
  w.put<double>(st.max());
  std::uint32_t nonzero = 0;
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    if (h.bucket(static_cast<std::size_t>(b)) != 0) ++nonzero;
  }
  w.put<std::uint32_t>(nonzero);
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    const std::uint64_t c = h.bucket(static_cast<std::size_t>(b));
    if (c == 0) continue;
    w.put<std::uint8_t>(static_cast<std::uint8_t>(b));
    w.put<std::uint64_t>(c);
  }
}

Log2Histogram get_hist(BinaryReader& r) {
  const auto n = r.get<std::uint64_t>();
  const double mean = r.get<double>();
  const double m2 = r.get<double>();
  const double sum = r.get<double>();
  const double min = r.get<double>();
  const double max = r.get<double>();
  const auto nonzero = r.get<std::uint32_t>();
  if (nonzero > static_cast<std::uint32_t>(Log2Histogram::kBuckets)) {
    malformed("histogram bucket count");
  }
  // 9 bytes per (index, count) pair must fit in what remains.
  if (static_cast<std::uint64_t>(nonzero) * 9 > r.remaining()) {
    malformed("histogram buckets exceed payload");
  }
  std::vector<std::uint64_t> counts(Log2Histogram::kBuckets, 0);
  for (std::uint32_t i = 0; i < nonzero; ++i) {
    const auto b = r.get<std::uint8_t>();
    if (b >= static_cast<std::uint8_t>(Log2Histogram::kBuckets)) {
      malformed("histogram bucket index");
    }
    counts[b] = r.get<std::uint64_t>();
  }
  return Log2Histogram::from_parts(RunningStats::from_parts(n, mean, m2, sum, min, max), counts);
}

void put_snapshot(BinaryWriter& w, const MetricsSnapshot& snap) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(
      std::min<std::size_t>(snap.entries.size(), kMaxSnapshotEntries)));
  std::size_t written = 0;
  for (const auto& [key, e] : snap.entries) {
    if (written++ == kMaxSnapshotEntries) break;
    w.put_string(key.name);
    w.put<std::int32_t>(key.node);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(e.kind));
    switch (e.kind) {
      case MetricKind::Counter: w.put<std::uint64_t>(e.count); break;
      case MetricKind::Gauge: w.put<double>(e.value); break;
      case MetricKind::Histogram: put_hist(w, e.hist); break;
    }
  }
}

MetricsSnapshot get_snapshot(BinaryReader& r) {
  const auto n = r.get<std::uint32_t>();
  if (n > kMaxSnapshotEntries) malformed("snapshot entry count");
  // Even an empty entry takes >= 13 bytes (name length + node + kind).
  if (static_cast<std::uint64_t>(n) * 13 > r.remaining()) {
    malformed("snapshot entries exceed payload");
  }
  MetricsSnapshot snap;
  for (std::uint32_t i = 0; i < n; ++i) {
    MetricsSnapshot::Key key;
    key.name = get_name(r, "snapshot entry");
    key.node = r.get<std::int32_t>();
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(MetricKind::Histogram)) malformed("metric kind");
    MetricsSnapshot::Entry e;
    e.kind = static_cast<MetricKind>(kind);
    switch (e.kind) {
      case MetricKind::Counter: e.count = r.get<std::uint64_t>(); break;
      case MetricKind::Gauge: e.value = r.get<double>(); break;
      case MetricKind::Histogram: e.hist = get_hist(r); break;
    }
    snap.entries.emplace(std::move(key), std::move(e));
  }
  return snap;
}

}  // namespace

// ---- config -----------------------------------------------------------------

TelemetryConfig TelemetryConfig::parse(const std::string& text) {
  TelemetryConfig cfg;
  if (text.empty()) return cfg;
  cfg.enabled = true;  // setting the variable means "on" unless it says off
  Spec spec("DOOC_TELEMETRY", text);
  spec.read_mode(cfg.enabled, {{"on", true}, {"off", false}});
  spec.read_int("interval", cfg.interval_ms, 1, 3600'000);
  spec.read_int("miss", cfg.miss_intervals, 1, 1000);
  spec.read_int("stall", cfg.stall_intervals, 1, 100000);
  spec.read_float("zscore", cfg.straggler_zscore, 0.1, 100.0);
  spec.read_float("slow", cfg.slow_factor, 1.0, 1e6);
  spec.read_float("p99", cfg.p99_factor, 1.0, 1e6);
  spec.read_int("history", cfg.history, 2, 100000);
  spec.read_int("port", cfg.metrics_port, 0, 65535);
  spec.finish();
  return cfg;
}

TelemetryConfig TelemetryConfig::from_env() { return parse(Spec::env("DOOC_TELEMETRY")); }

// ---- frame codec ------------------------------------------------------------

DataBuffer TelemetryFrame::encode() const {
  BinaryWriter w;
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint16_t>(kVersion);
  w.put<std::int32_t>(node);
  w.put<std::uint64_t>(seq);
  w.put<std::uint64_t>(ts_ns);
  w.put<std::uint64_t>(tasks_executed);
  w.put<std::uint64_t>(tasks_inflight);
  w.put<std::uint64_t>(queue_depth);
  w.put<std::uint64_t>(inflight_bytes);
  w.put<std::uint64_t>(cache_hits);
  w.put<std::uint64_t>(cache_misses);
  w.put<std::uint64_t>(faults);
  w.put<std::uint64_t>(trace_dropped);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(std::min<std::size_t>(jobs.size(), kMaxJobs)));
  std::size_t written = 0;
  for (const JobProgress& j : jobs) {
    if (written++ == kMaxJobs) break;
    w.put<std::uint32_t>(j.job);
    w.put<std::uint64_t>(j.tasks_done);
    w.put<std::uint64_t>(j.tasks_total);
  }
  put_snapshot(w, metrics);
  return w.take();
}

TelemetryFrame TelemetryFrame::decode(const DataBuffer& payload) {
  BinaryReader r(payload);
  TelemetryFrame f;
  if (r.get<std::uint32_t>() != kMagic) malformed("bad magic");
  const auto version = r.get<std::uint16_t>();
  if (version != kVersion) {
    malformed("unsupported version " + std::to_string(version));
  }
  f.node = r.get<std::int32_t>();
  f.seq = r.get<std::uint64_t>();
  f.ts_ns = r.get<std::uint64_t>();
  f.tasks_executed = r.get<std::uint64_t>();
  f.tasks_inflight = r.get<std::uint64_t>();
  f.queue_depth = r.get<std::uint64_t>();
  f.inflight_bytes = r.get<std::uint64_t>();
  f.cache_hits = r.get<std::uint64_t>();
  f.cache_misses = r.get<std::uint64_t>();
  f.faults = r.get<std::uint64_t>();
  f.trace_dropped = r.get<std::uint64_t>();
  const auto njobs = r.get<std::uint32_t>();
  if (njobs > kMaxJobs || static_cast<std::uint64_t>(njobs) * 20 > r.remaining()) {
    malformed("job progress count exceeds payload");
  }
  f.jobs.reserve(njobs);
  for (std::uint32_t i = 0; i < njobs; ++i) {
    JobProgress j;
    j.job = r.get<std::uint32_t>();
    j.tasks_done = r.get<std::uint64_t>();
    j.tasks_total = r.get<std::uint64_t>();
    f.jobs.push_back(j);
  }
  f.metrics = get_snapshot(r);
  return f;
}

// ---- hub --------------------------------------------------------------------

void TelemetryHub::add(TelemetryFrame frame, std::uint64_t arrival_ns) {
  std::lock_guard lock(mutex_);
  Series& s = series_[frame.node];
  s.last_arrival_ns = arrival_ns;
  s.frames.push_back(std::move(frame));
  while (s.frames.size() > static_cast<std::size_t>(history_)) s.frames.pop_front();
  ++frames_;
}

void TelemetryHub::for_each_series(const std::function<void(int, const Series&)>& fn) const {
  std::lock_guard lock(mutex_);
  for (const auto& [node, series] : series_) fn(node, series);
}

std::map<int, TelemetryFrame> TelemetryHub::latest() const {
  std::lock_guard lock(mutex_);
  std::map<int, TelemetryFrame> out;
  for (const auto& [node, series] : series_) {
    if (!series.frames.empty()) out.emplace(node, series.frames.back());
  }
  return out;
}

std::uint64_t TelemetryHub::frames_received() const {
  std::lock_guard lock(mutex_);
  return frames_;
}

MetricsSnapshot TelemetryHub::aggregate() const {
  MetricsSnapshot out;
  std::lock_guard lock(mutex_);
  for (const auto& [node, series] : series_) {
    if (series.frames.empty()) continue;
    const TelemetryFrame& f = series.frames.back();
    out.merge(f.metrics);
    const auto counter = [&](const char* name, std::uint64_t v) {
      auto& e = out.entries[MetricsSnapshot::Key{name, node}];
      e.kind = MetricKind::Counter;
      e.count = v;
    };
    const auto gauge = [&](const char* name, double v) {
      auto& e = out.entries[MetricsSnapshot::Key{name, node}];
      e.kind = MetricKind::Gauge;
      e.value = v;
    };
    counter("telemetry.frames", f.seq + 1);
    counter("telemetry.tasks_executed", f.tasks_executed);
    gauge("telemetry.tasks_inflight", static_cast<double>(f.tasks_inflight));
    gauge("telemetry.queue_depth", static_cast<double>(f.queue_depth));
    gauge("telemetry.inflight_bytes", static_cast<double>(f.inflight_bytes));
    gauge("telemetry.cache_hit_rate", f.cache_hit_rate());
    counter("telemetry.trace_dropped", f.trace_dropped);
    for (const JobProgress& j : f.jobs) {
      const std::string prefix = "jobs.j" + std::to_string(j.job);
      auto& done = out.entries[MetricsSnapshot::Key{prefix + ".tasks_done", -1}];
      done.kind = MetricKind::Counter;
      done.count += j.tasks_done;
      auto& total = out.entries[MetricsSnapshot::Key{prefix + ".tasks_total", -1}];
      total.kind = MetricKind::Counter;
      total.count = std::max(total.count, j.tasks_total);
    }
  }
  return out;
}

// ---- health events ----------------------------------------------------------

const char* health_kind_name(HealthKind k) noexcept {
  switch (k) {
    case HealthKind::MissedHeartbeat: return "missed-heartbeat";
    case HealthKind::StalledQueue: return "stalled-queue";
    case HealthKind::Straggler: return "straggler";
    case HealthKind::Recovered: return "recovered";
  }
  return "unknown";
}

std::string HealthEvent::to_text() const {
  char buf[64];
  std::string out = std::string(health_kind_name(kind)) + " node " + std::to_string(node);
  if (job >= 0) out += " job " + std::to_string(job);
  std::snprintf(buf, sizeof(buf), " (value %.4g, threshold %.4g)", value, threshold);
  out += buf;
  if (!detail.empty()) out += ": " + detail;
  return out;
}

void emit_health_event(const HealthEvent& hev) {
  if (!trace_enabled()) return;
  Event ev;
  ev.phase = Phase::Instant;
  ev.cat = intern("health");
  ev.name = intern(health_kind_name(hev.kind));
  ev.pid = hev.node;
  ev.ts_ns = hev.ts_ns;
  ev.nargs = 3;
  ev.arg_name[0] = intern("value_f64");
  std::memcpy(&ev.arg_val[0], &hev.value, sizeof(double));
  ev.arg_name[1] = intern("threshold_f64");
  std::memcpy(&ev.arg_val[1], &hev.threshold, sizeof(double));
  ev.arg_name[2] = intern("job");
  ev.arg_val[2] = static_cast<std::uint64_t>(hev.job < 0 ? 0 : hev.job);
  TraceSession::instance().emit(ev);
}

// ---- watchdog ---------------------------------------------------------------

void Watchdog::transition(std::vector<HealthEvent>& out, int node, HealthKind kind, bool active,
                          std::uint64_t now_ns, double value, double threshold,
                          std::string detail) {
  bool& state = active_[{node, static_cast<std::uint8_t>(kind)}];
  if (active == state) return;
  state = active;
  if (kind == HealthKind::MissedHeartbeat) {
    if (active) {
      suspected_.insert(node);
    } else {
      suspected_.erase(node);
    }
  }
  HealthEvent ev;
  ev.kind = active ? kind : HealthKind::Recovered;
  ev.node = node;
  ev.ts_ns = now_ns;
  ev.value = value;
  ev.threshold = threshold;
  ev.detail = active ? std::move(detail)
                     : std::string(health_kind_name(kind)) + " cleared";
  out.push_back(std::move(ev));
}

std::vector<HealthEvent> Watchdog::poll(const TelemetryHub& hub, std::uint64_t now_ns) {
  std::vector<HealthEvent> out;
  const std::uint64_t interval = config_.interval_ns();
  const std::uint64_t miss_after =
      interval * static_cast<std::uint64_t>(config_.miss_intervals);
  const std::uint64_t stall_after =
      interval * static_cast<std::uint64_t>(config_.stall_intervals);

  // Per-node signals collected in one pass under the hub lock.
  struct NodeSignal {
    bool fresh = false;          ///< heard from recently (not a heartbeat case)
    double silence_s = 0.0;
    bool stalled = false;
    std::uint64_t stalled_span_ns = 0;
    bool busy = false;           ///< latest frame has work queued or running
    bool has_rate = false;
    double rate = 0.0;           ///< tasks / second over the rolling window
    double exec_p99 = 0.0;       ///< us; 0 = no usable histogram
  };
  std::map<int, NodeSignal> signals;

  hub.for_each_series([&](int node, const TelemetryHub::Series& s) {
    NodeSignal sig;
    const std::uint64_t silence =
        now_ns > s.last_arrival_ns ? now_ns - s.last_arrival_ns : 0;
    sig.silence_s = static_cast<double>(silence) / 1e9;
    sig.fresh = silence <= miss_after;
    if (!s.frames.empty()) {
      const TelemetryFrame& last = s.frames.back();
      sig.busy = last.tasks_inflight > 0 || last.queue_depth > 0;
      // Stall: walk back to a frame at least the stall window older; if
      // the completion count did not move over that span while work was
      // in flight, the node's executor is wedged.
      for (auto it = s.frames.rbegin(); it != s.frames.rend(); ++it) {
        if (last.ts_ns - it->ts_ns < stall_after) continue;
        if (it->tasks_executed == last.tasks_executed &&
            (last.tasks_inflight > 0 || last.queue_depth > 0)) {
          sig.stalled = true;
          sig.stalled_span_ns = last.ts_ns - it->ts_ns;
        }
        break;
      }
      // Task rate over the window (needs a span of at least one interval
      // AND at least one completion in it — a busy node that has finished
      // nothing yet is warming up or wedged; StalledQueue owns the
      // wedged case, the rate tests only judge nodes that complete work).
      const TelemetryFrame& first = s.frames.front();
      if (last.ts_ns > first.ts_ns && last.ts_ns - first.ts_ns >= interval &&
          last.tasks_executed > first.tasks_executed) {
        sig.has_rate = true;
        sig.rate = static_cast<double>(last.tasks_executed - first.tasks_executed) /
                   (static_cast<double>(last.ts_ns - first.ts_ns) / 1e9);
      }
      // Exec-time distribution: any histogram named "*.exec_us" scoped to
      // this node in the latest frame.
      for (const auto& [key, e] : last.metrics.entries) {
        if (e.kind != MetricKind::Histogram || key.node != node) continue;
        if (key.name.size() < 8 || key.name.rfind(".exec_us") != key.name.size() - 8) continue;
        if (e.hist.stats().count() < 8) continue;
        sig.exec_p99 = e.hist.quantile(0.99);
        break;
      }
    }
    signals.emplace(node, sig);
  });

  // Heartbeats and stalls are per-node verdicts.
  for (const auto& [node, sig] : signals) {
    transition(out, node, HealthKind::MissedHeartbeat, !sig.fresh, now_ns, sig.silence_s,
               static_cast<double>(miss_after) / 1e9,
               "no frame for " + std::to_string(sig.silence_s) + "s");
    transition(out, node, HealthKind::StalledQueue, sig.fresh && sig.stalled, now_ns,
               static_cast<double>(sig.stalled_span_ns) / 1e9,
               static_cast<double>(stall_after) / 1e9,
               "inflight work but no completions");
  }

  // Stragglers are relative verdicts: need >= 3 fresh *busy* nodes with
  // rates. A node with nothing queued or running is idle (likely done
  // with its share), not straggling — it neither gets flagged nor drags
  // the cluster's rate distribution down at the end of a run.
  std::vector<double> rates;
  std::vector<double> p99s;
  for (const auto& [node, sig] : signals) {
    if (sig.fresh && sig.busy && sig.has_rate) rates.push_back(sig.rate);
    if (sig.fresh && sig.exec_p99 > 0.0) p99s.push_back(sig.exec_p99);
  }
  double rate_mean = 0.0, rate_sd = 0.0, rate_median = 0.0;
  if (rates.size() >= 3) {
    for (const double r : rates) rate_mean += r;
    rate_mean /= static_cast<double>(rates.size());
    for (const double r : rates) rate_sd += (r - rate_mean) * (r - rate_mean);
    rate_sd = std::sqrt(rate_sd / static_cast<double>(rates.size()));
    std::vector<double> sorted = rates;
    std::sort(sorted.begin(), sorted.end());
    rate_median = sorted[sorted.size() / 2];
  }
  // Exec-time comparison is p99 vs the cluster's *median p99*: tails are
  // judged against everyone else's tail, so a workload where every node
  // is equally heavy-tailed flags nobody.
  double p99_median = 0.0;
  if (p99s.size() >= 3) {
    std::sort(p99s.begin(), p99s.end());
    p99_median = p99s[p99s.size() / 2];
  }

  for (const auto& [node, sig] : signals) {
    bool straggler = false;
    double value = 0.0, threshold = 0.0;
    std::string detail;
    if (sig.fresh && sig.busy && sig.has_rate && rates.size() >= 3) {
      const bool by_z = rate_sd > 1e-12 &&
                        (rate_mean - sig.rate) / rate_sd >= config_.straggler_zscore;
      const bool by_median =
          rate_median > 0.0 && sig.rate * config_.slow_factor < rate_median;
      if (by_z || by_median) {
        straggler = true;
        value = sig.rate;
        threshold = by_median ? rate_median / config_.slow_factor
                              : rate_mean - config_.straggler_zscore * rate_sd;
        char buf[128];
        std::snprintf(buf, sizeof(buf), "task rate %.3g/s vs cluster median %.3g/s", sig.rate,
                      rate_median);
        detail = buf;
      }
    }
    if (!straggler && sig.fresh && sig.busy && sig.exec_p99 > 0.0 && p99_median > 0.0 &&
        sig.exec_p99 > config_.p99_factor * p99_median) {
      straggler = true;
      value = sig.exec_p99;
      threshold = config_.p99_factor * p99_median;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "exec p99 %.3gus vs cluster median p99 %.3gus",
                    sig.exec_p99, p99_median);
      detail = buf;
    }
    transition(out, node, HealthKind::Straggler, straggler, now_ns, value, threshold,
               std::move(detail));
  }
  return out;
}

// ---- local (in-process) telemetry -------------------------------------------

std::vector<TelemetryFrame> LocalTelemetry::frames_from_registry(int num_nodes,
                                                                 std::uint64_t seq,
                                                                 std::uint64_t ts_ns) {
  const MetricsSnapshot snap = Metrics::instance().snapshot();
  const auto counter_of = [&](const std::string& name, int node) -> std::uint64_t {
    const auto it = snap.entries.find(MetricsSnapshot::Key{name, node});
    return it != snap.entries.end() ? it->second.count : 0;
  };
  const auto gauge_of = [&](const std::string& name, int node) -> double {
    const auto it = snap.entries.find(MetricsSnapshot::Key{name, node});
    return it != snap.entries.end() ? it->second.value : 0.0;
  };
  std::vector<TelemetryFrame> frames;
  frames.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    TelemetryFrame f;
    f.node = n;
    f.seq = seq;
    f.ts_ns = ts_ns;
    f.tasks_executed = counter_of("sched.tasks_executed", n);
    f.queue_depth = static_cast<std::uint64_t>(
        std::max(0.0, gauge_of("sched.completion_queue_depth", n)));
    f.inflight_bytes =
        static_cast<std::uint64_t>(std::max(0.0, gauge_of("storage.inflight_bytes", n)));
    f.tasks_inflight = f.queue_depth;
    f.cache_hits = counter_of("storage.cache_hit", n);
    f.cache_misses = counter_of("storage.cache_miss", n);
    f.faults = counter_of("sched.load_faults", n);
    f.trace_dropped = counter_of("obs.trace_dropped_events", -1);
    for (const auto& [key, e] : snap.entries) {
      if (key.node == n) f.metrics.entries.emplace(key, e);
    }
    // Per-job progress (jobs.tasks_done is keyed by job id, not node) and
    // the runtime-wide entries ride on node 0's frame so a hub aggregate
    // counts them exactly once.
    if (n == 0) {
      for (const auto& [key, e] : snap.entries) {
        if (key.node < 0) f.metrics.entries.emplace(key, e);
        if (key.name == "jobs.tasks_done" && key.node >= 0) {
          JobProgress jp;
          jp.job = static_cast<std::uint32_t>(key.node);
          jp.tasks_done = e.count;
          f.jobs.push_back(jp);
        }
      }
    }
    frames.push_back(std::move(f));
  }
  return frames;
}

LocalTelemetry::LocalTelemetry(TelemetryConfig config, int num_nodes, std::string source)
    : config_(config),
      num_nodes_(num_nodes > 0 ? num_nodes : 1),
      source_(std::move(source)),
      hub_(config.history),
      watchdog_(config) {
  thread_ = std::thread([this] { thread_main(); });
}

LocalTelemetry::~LocalTelemetry() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  sample_once(TraceClock::now_ns());  // final frame so series reach the end
}

void LocalTelemetry::thread_main() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    lock.unlock();
    sample_once(TraceClock::now_ns());
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms),
                 [this] { return stop_; });
  }
}

void LocalTelemetry::sample_once(std::uint64_t now_ns) {
  std::uint64_t seq = 0;
  {
    // Tests drive sample_once while the sampler thread runs, so the
    // sequence number is claimed under the lock.
    std::lock_guard lock(mutex_);
    seq = seq_++;
  }
  std::vector<TelemetryFrame> frames = frames_from_registry(num_nodes_, seq, now_ns);
  for (TelemetryFrame& f : frames) hub_.add(std::move(f), now_ns);
  std::vector<HealthEvent> events;
  {
    std::lock_guard lock(mutex_);
    events = watchdog_.poll(hub_, now_ns);
    for (const HealthEvent& ev : events) events_.push_back(ev);
  }
  for (const HealthEvent& ev : events) emit_health_event(ev);
}

std::vector<HealthEvent> LocalTelemetry::health_events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::string LocalTelemetry::prometheus_text() const {
  MetricsSnapshot agg = hub_.aggregate();
  {
    std::lock_guard lock(mutex_);
    for (const HealthEvent& ev : events_) {
      const char* name = health_kind_name(ev.kind);
      auto& e = agg.entries[MetricsSnapshot::Key{std::string("health.") + name, ev.node}];
      e.kind = MetricKind::Counter;
      e.count += 1;
    }
  }
  return agg.to_prometheus();
}

}  // namespace dooc::obs::telemetry
