// dooc::obs trace layer (half 1 of the observability subsystem).
//
// Timestamped events (task begin/end, block load/evict/hit/miss, prefetch
// issue/complete, simulated virtual-time events) flow through lock-free
// per-thread rings into a process-wide TraceSession which exports Chrome
// trace-event JSON — loadable in chrome://tracing or
// https://ui.perfetto.dev. Virtual nodes map to Chrome pids, worker
// threads to tids, so a 3-node run renders as three process lanes.
//
// Tracing is compiled in but OFF by default: every instrumentation site
// guards on trace_enabled(), a single relaxed atomic load, so the disabled
// path costs one predictable branch. Enable programmatically
// (TraceSession::start), via Options key "trace-out", or via the
// environment (DOOC_TRACE=out.json).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace dooc::obs {

namespace detail {
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// The fast gate every instrumentation site checks first.
inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Chrome trace-event phases we emit. Complete carries ts+dur ("X"),
/// Instant is a point marker ("i"), Counter a sampled value ("C").
/// FlowStart/FlowStep/FlowEnd ("s"/"t"/"f") are causal arrows between
/// spans, correlated by Event::id — Perfetto draws them, and
/// obs::CausalGraph rebuilds the producer→consumer DAG from them.
enum class Phase : std::uint8_t { Complete, Instant, Counter, FlowStart, FlowStep, FlowEnd };

/// Fixed-size POD event record (what the rings store). Strings are interned
/// ids resolved by the session at export time.
struct Event {
  std::uint64_t ts_ns = 0;   ///< process-epoch ns, or virtual ns (sim runs)
  std::uint64_t dur_ns = 0;  ///< Complete events only
  std::uint64_t id = 0;      ///< flow correlation id (Flow* phases only)
  std::uint32_t name = 0;    ///< interned
  std::uint32_t cat = 0;     ///< interned category ("task", "io", "storage", ...)
  std::int32_t pid = -1;     ///< virtual node id (-1 = whole process)
  std::int32_t tid = 0;      ///< worker-thread / lane id
  Phase phase = Phase::Instant;
  std::uint8_t nargs = 0;
  std::uint32_t arg_name[3] = {0, 0, 0};
  std::uint64_t arg_val[3] = {0, 0, 0};
};

/// Intern a string for use in Event::name / cat / arg_name. Cheap for
/// strings already seen (shared-lock hash lookup); never forgets.
std::uint32_t intern(std::string_view s);
/// Reverse lookup (export/tests). Lifetime: until process exit.
const std::string& interned(std::uint32_t id);
/// Number of distinct strings interned so far (exported trace metadata).
std::size_t intern_count();

/// Session-level facts embedded in the exported trace as a Chrome metadata
/// record ("ph":"M", name "dooc_trace_stats") so a consumer can tell a
/// complete trace from one that lost events to full rings.
struct TraceMeta {
  std::uint64_t dropped_events = 0;
  std::uint64_t ring_capacity = 0;    ///< per-thread ring slots
  std::uint64_t interned_strings = 0;
};

class TraceSession {
 public:
  static TraceSession& instance();

  /// Enable tracing. Events collect in memory; stop() writes them to
  /// `path` as Chrome trace JSON (empty path = collect only).
  void start(std::string path = {});
  /// Disable, drain every thread ring, write the JSON file if a path was
  /// given, and return the collected events (sorted by ts).
  std::vector<Event> stop();
  /// Reads DOOC_TRACE from the environment and start()s if set. Invoked
  /// once automatically; harmless to call again.
  void init_from_env();

  [[nodiscard]] bool active() const noexcept { return trace_enabled(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Events rejected across all rings since start() (full-ring drops are
  /// recovered by self-draining, so this stays 0 in practice).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Queue one event (any thread). No-op unless the session is active.
  void emit(const Event& ev);

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  TraceSession() = default;
  struct Impl;
  Impl& impl();

  std::string path_;
};

/// Write events as Chrome trace-event JSON ({"traceEvents":[...]}).
/// `meta`, when given, is embedded as a "dooc_trace_stats" metadata record.
void write_chrome_trace(const std::string& path, const std::vector<Event>& events,
                        const TraceMeta* meta = nullptr);
/// Same, to a string (tests).
std::string chrome_trace_json(const std::vector<Event>& events, const TraceMeta* meta = nullptr);

// ---- convenience emitters --------------------------------------------------

inline void emit_complete(std::uint32_t cat, std::uint32_t name, std::int32_t pid,
                          std::int32_t tid, std::uint64_t ts_ns, std::uint64_t dur_ns) {
  Event ev;
  ev.phase = Phase::Complete;
  ev.cat = cat;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  TraceSession::instance().emit(ev);
}

inline void emit_instant(std::uint32_t cat, std::uint32_t name, std::int32_t pid,
                         std::int32_t tid) {
  Event ev;
  ev.phase = Phase::Instant;
  ev.cat = cat;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_ns = TraceClock::now_ns();
  TraceSession::instance().emit(ev);
}

inline void emit_counter(std::uint32_t cat, std::uint32_t name, std::int32_t pid,
                         std::uint64_t value) {
  Event ev;
  ev.phase = Phase::Counter;
  ev.cat = cat;
  ev.name = name;
  ev.pid = pid;
  ev.ts_ns = TraceClock::now_ns();
  ev.nargs = 1;
  ev.arg_name[0] = intern("value");
  ev.arg_val[0] = value;
  TraceSession::instance().emit(ev);
}

/// One point of a causal flow (s/t/f). The correlation id ties the points
/// of one flow together; `ts_ns` must sit inside (or on the edge of) the
/// span the point should bind to, on the same pid/tid lane.
inline void emit_flow(Phase phase, std::uint32_t cat, std::uint32_t name, std::int32_t pid,
                      std::int32_t tid, std::uint64_t ts_ns, std::uint64_t flow_id,
                      std::uint32_t arg_name = 0, std::uint64_t arg_val = 0,
                      std::uint32_t arg2_name = 0, std::uint64_t arg2_val = 0) {
  Event ev;
  ev.phase = phase;
  ev.cat = cat;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_ns = ts_ns;
  ev.id = flow_id;
  if (arg_name != 0) {
    ev.nargs = 1;
    ev.arg_name[0] = arg_name;
    ev.arg_val[0] = arg_val;
  }
  if (arg2_name != 0) {
    ev.arg_name[ev.nargs] = arg2_name;
    ev.arg_val[ev.nargs] = arg2_val;
    ++ev.nargs;
  }
  TraceSession::instance().emit(ev);
}

/// A small per-thread lane id for Chrome tids: stable, dense, assigned on
/// first use (worker threads come and go; raw OS tids are sparse).
std::int32_t current_thread_lane();

/// RAII span: records its construction time, emits one Complete event at
/// destruction. Nesting falls out of Chrome's stacking of X events that
/// share a tid. Construct only behind trace_enabled() — the object itself
/// does not re-check.
class Span {
 public:
  Span(std::string_view cat, std::string_view name, std::int32_t pid,
       std::int32_t tid = current_thread_lane()) {
    ev_.phase = Phase::Complete;
    ev_.cat = intern(cat);
    ev_.name = intern(name);
    ev_.pid = pid;
    ev_.tid = tid;
    ev_.ts_ns = TraceClock::now_ns();
  }

  Span& arg(std::string_view name, std::uint64_t value) {
    if (ev_.nargs < 3) {
      ev_.arg_name[ev_.nargs] = intern(name);
      ev_.arg_val[ev_.nargs] = value;
      ++ev_.nargs;
    }
    return *this;
  }

  /// Elapsed so far (also the recorded duration once destroyed).
  [[nodiscard]] std::uint64_t elapsed_ns() const noexcept {
    return TraceClock::now_ns() - ev_.ts_ns;
  }

  ~Span() {
    ev_.dur_ns = elapsed_ns();
    TraceSession::instance().emit(ev_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Event ev_;
};

}  // namespace dooc::obs
