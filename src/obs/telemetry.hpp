// dooc::obs::telemetry — the live half of the observability subsystem.
//
// Post-mortem traces (trace.hpp) tell you a node was a straggler after the
// run ends; this layer makes the same signals visible *while jobs run*.
// Every producer — a doocd daemon, the in-process engine, or the DES under
// virtual time — periodically snapshots its metrics registry plus runtime
// gauges into a compact versioned TelemetryFrame. Frames stream to a
// TelemetryHub (over the net layer's Telemetry channel in a real cluster;
// directly in-process otherwise) which keeps a rolling per-node time
// series. A Watchdog polled over that series detects missed heartbeats,
// stalled completion queues and stragglers, and surfaces typed
// HealthEvents that flow into the trace (cat "health") and into whoever
// polls — the Coordinator uses them as dead-node suspicion ahead of TCP
// timeouts.
//
// Everything here is time-source agnostic: producers stamp frames and
// pollers pass "now" in nanoseconds, so the DES replays the exact same
// cadence and thresholds under virtual time — watchdog verdicts are
// deterministic and testable without wall-clock sleeps.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.hpp"
#include "obs/metrics.hpp"

namespace dooc::obs::telemetry {

/// Runtime policy, parsed from the DOOC_TELEMETRY environment variable,
/// e.g. "on,interval=100,miss=3,zscore=2.5,port=9464".
struct TelemetryConfig {
  bool enabled = false;
  /// Frame cadence (and the watchdog's base unit), milliseconds.
  int interval_ms = 250;
  /// Heartbeat silence longer than miss*interval raises MissedHeartbeat.
  int miss_intervals = 3;
  /// No completed task for stall*interval with work in flight raises
  /// StalledQueue.
  int stall_intervals = 8;
  /// One-sided task-rate z-score below the cluster mean that flags a
  /// straggler (needs >= 3 reporting nodes with work in flight; an idle
  /// node is done, not slow).
  double straggler_zscore = 2.0;
  /// Median-based straggler test: rate_i * slow_factor < median rate.
  double slow_factor = 4.0;
  /// Exec-time straggler test: node p99 > p99_factor * the cluster's
  /// median per-node p99 of the "*.exec_us" histograms (needs >= 8
  /// samples per node) — tails are judged against everyone else's tail.
  double p99_factor = 8.0;
  /// Frames retained per node in the hub's rolling window.
  int history = 64;
  /// Prometheus scrape endpoint port (0 = disabled; tools pass it through
  /// --metrics-port as well).
  int metrics_port = 0;

  [[nodiscard]] std::uint64_t interval_ns() const noexcept {
    return static_cast<std::uint64_t>(interval_ms) * 1'000'000ull;
  }

  /// Parse a DOOC_TELEMETRY spec; throws InvalidArgument on a bad spec. A
  /// non-empty spec enables telemetry unless it says "off".
  [[nodiscard]] static TelemetryConfig parse(const std::string& spec);
  /// DOOC_TELEMETRY from the environment (unset -> disabled default).
  [[nodiscard]] static TelemetryConfig from_env();
};

/// Per-job progress carried in a frame (coordinator/engine producers; a
/// plain daemon does not know job composition and leaves this empty).
struct JobProgress {
  std::uint32_t job = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_total = 0;
};

/// One node's periodic self-report: runtime scalars every consumer wants
/// cheap access to, plus the producer's full metrics-registry snapshot.
/// Versioned binary codec; decode() treats the payload as untrusted (it
/// arrives off a socket) and throws IoError on anything malformed before
/// allocating for it.
struct TelemetryFrame {
  static constexpr std::uint32_t kMagic = 0x544C4D46;  // "TLMF"
  static constexpr std::uint16_t kVersion = 1;

  std::int32_t node = -1;
  std::uint64_t seq = 0;
  std::uint64_t ts_ns = 0;  ///< producer clock: steady ns, or virtual ns (DES)
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_inflight = 0;  ///< queued + running on the producer
  std::uint64_t queue_depth = 0;     ///< executor/completion queue backlog
  std::uint64_t inflight_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t faults = 0;
  std::uint64_t trace_dropped = 0;  ///< live obs.trace_dropped_events value
  std::vector<JobProgress> jobs;
  MetricsSnapshot metrics;

  [[nodiscard]] double cache_hit_rate() const noexcept {
    const auto total = cache_hits + cache_misses;
    return total != 0 ? static_cast<double>(cache_hits) / static_cast<double>(total) : 0.0;
  }

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static TelemetryFrame decode(const DataBuffer& payload);
};

/// Rolling per-node time series of frames plus arrival times. Thread-safe:
/// a transport recv loop adds while a scrape endpoint aggregates.
class TelemetryHub {
 public:
  explicit TelemetryHub(int history = 64) : history_(history > 0 ? history : 1) {}

  struct Series {
    std::deque<TelemetryFrame> frames;   ///< oldest -> newest, <= history
    std::uint64_t last_arrival_ns = 0;   ///< consumer clock (watchdog's "now")
  };

  void add(TelemetryFrame frame, std::uint64_t arrival_ns);

  /// Visit every node's series under the hub lock (watchdog, rendering).
  void for_each_series(const std::function<void(int, const Series&)>& fn) const;

  /// Latest frame per node (copies).
  [[nodiscard]] std::map<int, TelemetryFrame> latest() const;

  /// Cluster aggregate for the scrape endpoint / dooc_top: every node's
  /// latest frame.metrics merged, plus the frame scalars synthesized as
  /// "telemetry.*" entries and per-job progress as "jobs.j<id>.*".
  [[nodiscard]] MetricsSnapshot aggregate() const;

  [[nodiscard]] std::uint64_t frames_received() const;
  [[nodiscard]] int history() const noexcept { return history_; }

 private:
  mutable std::mutex mutex_;
  int history_;
  std::map<int, Series> series_;
  std::uint64_t frames_ = 0;
};

enum class HealthKind : std::uint8_t {
  MissedHeartbeat,  ///< silence longer than miss_intervals * interval
  StalledQueue,     ///< inflight work but no completions over the stall window
  Straggler,        ///< task rate or exec p99 far off the cluster's
  Recovered,        ///< a previously raised condition cleared
};

[[nodiscard]] const char* health_kind_name(HealthKind k) noexcept;

/// One typed verdict from the watchdog. `value` and `threshold` carry the
/// measurement that tripped (seconds of silence, rate, p99 factor...).
struct HealthEvent {
  HealthKind kind = HealthKind::MissedHeartbeat;
  int node = -1;
  int job = -1;  ///< -1 = node-level (no job attribution)
  std::uint64_t ts_ns = 0;
  double value = 0.0;
  double threshold = 0.0;
  std::string detail;

  [[nodiscard]] std::string to_text() const;
};

/// Emit a HealthEvent into the trace as an Instant event (cat "health",
/// pid = node, float args via the *_f64 convention). No-op when tracing is
/// off.
void emit_health_event(const HealthEvent& ev);

/// Pure, deterministic health detector over a TelemetryHub. poll() is
/// edge-triggered: a condition raises one event when it trips and one
/// Recovered when it clears; `suspected()` is the set of nodes with an
/// active MissedHeartbeat — the coordinator's dead-node suspicion.
class Watchdog {
 public:
  explicit Watchdog(TelemetryConfig config) : config_(config) {}

  /// Evaluate every condition at consumer time `now_ns` and return the
  /// events that newly tripped or cleared. Deterministic given the same
  /// hub contents and the same now.
  std::vector<HealthEvent> poll(const TelemetryHub& hub, std::uint64_t now_ns);

  [[nodiscard]] const std::set<int>& suspected() const noexcept { return suspected_; }
  [[nodiscard]] const TelemetryConfig& config() const noexcept { return config_; }

 private:
  /// Condition keys: (node, HealthKind) -> currently active.
  void transition(std::vector<HealthEvent>& out, int node, HealthKind kind, bool active,
                  std::uint64_t now_ns, double value, double threshold, std::string detail);

  TelemetryConfig config_;
  std::map<std::pair<int, std::uint8_t>, bool> active_;
  std::set<int> suspected_;
};

/// In-process producer+consumer: a sampling thread that, every interval,
/// builds one frame per node from the process-wide metrics registry, feeds
/// its own hub, polls its own watchdog and emits HealthEvents into the
/// trace. This is how the single-process engine (and anything else that
/// only has the registry) gets live telemetry without a transport. RAII:
/// the thread stops on destruction after one final sample.
class LocalTelemetry {
 public:
  LocalTelemetry(TelemetryConfig config, int num_nodes, std::string source = "engine");
  ~LocalTelemetry();

  LocalTelemetry(const LocalTelemetry&) = delete;
  LocalTelemetry& operator=(const LocalTelemetry&) = delete;

  [[nodiscard]] const TelemetryHub& hub() const noexcept { return hub_; }
  /// Health events observed so far (copy; also emitted into the trace).
  [[nodiscard]] std::vector<HealthEvent> health_events() const;
  /// Prometheus text of the hub aggregate (scrape endpoint provider).
  [[nodiscard]] std::string prometheus_text() const;

  /// One sampling step at time now_ns (also what the thread runs). Public
  /// so tests can drive it deterministically without the thread.
  void sample_once(std::uint64_t now_ns);

  /// Build per-node frames from the process-wide registry: scalar fields
  /// resolve from the well-known metric names ("sched.tasks_executed",
  /// "sched.completion_queue_depth", "storage.inflight_bytes",
  /// "storage.cache_hit"/"cache_miss", "obs.trace_dropped_events"), the
  /// embedded snapshot carries that node's entries, and "jobs.tasks_done"
  /// (keyed by job id) becomes JobProgress on node 0's frame.
  [[nodiscard]] static std::vector<TelemetryFrame> frames_from_registry(int num_nodes,
                                                                        std::uint64_t seq,
                                                                        std::uint64_t ts_ns);

 private:
  void thread_main();

  TelemetryConfig config_;
  int num_nodes_;
  std::string source_;
  TelemetryHub hub_;
  Watchdog watchdog_;
  mutable std::mutex mutex_;
  std::vector<HealthEvent> events_;  ///< mutex_
  std::uint64_t seq_ = 0;            ///< mutex_
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dooc::obs::telemetry
