// Tests for dooc::obs::telemetry — the live observability layer: config
// grammar, the TelemetryFrame wire codec (round-trip + hostile inputs),
// the rolling TelemetryHub and its cluster aggregate, the deterministic
// health Watchdog (missed heartbeats, stalled queues, stragglers), the
// DES replay of the same cadence under virtual time, the Prometheus HTTP
// scrape endpoint, and the histogram-through-trace machinery that makes
// `dooc_tracecat --metrics` merge Log2Histogram buckets across files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_http.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/task.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/array_creator.hpp"

using namespace dooc;
using namespace dooc::obs::telemetry;

namespace {

constexpr std::uint64_t kMs = 1'000'000ull;  // ns per millisecond

TelemetryFrame frame_of(int node, std::uint64_t seq, std::uint64_t ts_ns,
                        std::uint64_t tasks_executed, std::uint64_t inflight = 0,
                        std::uint64_t queue = 0) {
  TelemetryFrame f;
  f.node = node;
  f.seq = seq;
  f.ts_ns = ts_ns;
  f.tasks_executed = tasks_executed;
  f.tasks_inflight = inflight;
  f.queue_depth = queue;
  return f;
}

/// Feed a hub a steady cadence for `nodes` nodes: one frame per node per
/// interval, each node completing `rate[n]` tasks per interval.
void feed(TelemetryHub& hub, int nodes, int ticks, std::uint64_t interval_ns,
          const std::vector<std::uint64_t>& rate) {
  for (int t = 0; t < ticks; ++t) {
    const std::uint64_t now = static_cast<std::uint64_t>(t) * interval_ns;
    for (int n = 0; n < nodes; ++n) {
      hub.add(frame_of(n, static_cast<std::uint64_t>(t), now,
                       rate[static_cast<std::size_t>(n)] * static_cast<std::uint64_t>(t),
                       /*inflight=*/1),
              now);
    }
  }
}

}  // namespace

// ---- TelemetryConfig -------------------------------------------------------

TEST(TelemetryConfig, EmptySpecIsDisabledDefault) {
  const TelemetryConfig c = TelemetryConfig::parse("");
  EXPECT_FALSE(c.enabled);
  EXPECT_EQ(c.interval_ms, 250);
  EXPECT_EQ(c.miss_intervals, 3);
}

TEST(TelemetryConfig, ParsesFullGrammar) {
  const TelemetryConfig c = TelemetryConfig::parse(
      "on,interval=100,miss=2,stall=5,zscore=1.5,slow=3,p99=6,history=16,port=9464");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.interval_ms, 100);
  EXPECT_EQ(c.miss_intervals, 2);
  EXPECT_EQ(c.stall_intervals, 5);
  EXPECT_DOUBLE_EQ(c.straggler_zscore, 1.5);
  EXPECT_DOUBLE_EQ(c.slow_factor, 3.0);
  EXPECT_DOUBLE_EQ(c.p99_factor, 6.0);
  EXPECT_EQ(c.history, 16);
  EXPECT_EQ(c.metrics_port, 9464);
  EXPECT_EQ(c.interval_ns(), 100ull * kMs);
}

TEST(TelemetryConfig, BareOffDisablesAndKeyOnlySpecEnables) {
  EXPECT_FALSE(TelemetryConfig::parse("off").enabled);
  EXPECT_TRUE(TelemetryConfig::parse("on").enabled);
  const TelemetryConfig c = TelemetryConfig::parse("interval=50");
  EXPECT_TRUE(c.enabled) << "a non-empty spec without 'off' means on";
  EXPECT_EQ(c.interval_ms, 50);
}

TEST(TelemetryConfig, RejectsUnknownKeysBadValuesAndBareTokens) {
  EXPECT_THROW((void)TelemetryConfig::parse("bogus"), InvalidArgument);
  EXPECT_THROW((void)TelemetryConfig::parse("on,color=red"), InvalidArgument);
  EXPECT_THROW((void)TelemetryConfig::parse("interval=0"), InvalidArgument);
  EXPECT_THROW((void)TelemetryConfig::parse("interval=abc"), InvalidArgument);
  EXPECT_THROW((void)TelemetryConfig::parse("zscore=-1"), InvalidArgument);
  EXPECT_THROW((void)TelemetryConfig::parse("port=70000"), InvalidArgument);
  EXPECT_THROW((void)TelemetryConfig::parse("history=1"), InvalidArgument);
}

// ---- TelemetryFrame codec --------------------------------------------------

TEST(TelemetryFrame, RoundTripsEveryField) {
  TelemetryFrame f = frame_of(3, 17, 123456789, 42, 5, 9);
  f.inflight_bytes = 1ull << 33;
  f.cache_hits = 900;
  f.cache_misses = 100;
  f.blocks_decoded = 77;
  f.faults = 2;
  f.trace_dropped = 13;
  f.jobs.push_back({7, 10, 64});
  f.jobs.push_back({8, 64, 64});
  {
    auto& e = f.metrics.entries[{"sched.tasks_parked", 3}];
    e.kind = obs::MetricKind::Counter;
    e.count = 11;
  }
  {
    auto& e = f.metrics.entries[{"storage.inflight_bytes", 3}];
    e.kind = obs::MetricKind::Gauge;
    e.value = 4096.5;
  }
  {
    Log2Histogram h;
    for (const double v : {1.0, 3.0, 100.0, 100.0}) h.add(v);
    auto& e = f.metrics.entries[{"sched.exec_us", 3}];
    e.kind = obs::MetricKind::Histogram;
    e.hist = h;
  }

  const TelemetryFrame d = TelemetryFrame::decode(f.encode());
  EXPECT_EQ(d.node, 3);
  EXPECT_EQ(d.seq, 17u);
  EXPECT_EQ(d.ts_ns, 123456789u);
  EXPECT_EQ(d.tasks_executed, 42u);
  EXPECT_EQ(d.tasks_inflight, 5u);
  EXPECT_EQ(d.queue_depth, 9u);
  EXPECT_EQ(d.inflight_bytes, 1ull << 33);
  EXPECT_EQ(d.cache_hits, 900u);
  EXPECT_EQ(d.cache_misses, 100u);
  EXPECT_DOUBLE_EQ(d.cache_hit_rate(), 0.9);
  EXPECT_EQ(d.blocks_decoded, 77u);
  EXPECT_EQ(d.faults, 2u);
  EXPECT_EQ(d.trace_dropped, 13u);
  ASSERT_EQ(d.jobs.size(), 2u);
  EXPECT_EQ(d.jobs[0].job, 7u);
  EXPECT_EQ(d.jobs[0].tasks_done, 10u);
  EXPECT_EQ(d.jobs[0].tasks_total, 64u);
  ASSERT_EQ(d.metrics.entries.size(), 3u);
  EXPECT_EQ(d.metrics.entries.at({"sched.tasks_parked", 3}).count, 11u);
  EXPECT_DOUBLE_EQ(d.metrics.entries.at({"storage.inflight_bytes", 3}).value, 4096.5);
  const auto& h = d.metrics.entries.at({"sched.exec_us", 3}).hist;
  EXPECT_EQ(h.stats().count(), 4u);
  EXPECT_DOUBLE_EQ(h.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(TelemetryFrame, DecodeRejectsHostileInputs) {
  const TelemetryFrame f = frame_of(1, 2, 3, 4);
  const DataBuffer enc = f.encode();

  // Truncations at every length never crash and never succeed.
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_THROW((void)TelemetryFrame::decode(DataBuffer::copy_of(enc.data(), len)), IoError)
        << "truncated at " << len;
  }
  // Bad magic / version.
  DataBuffer bad = enc.clone();
  bad.data()[0] ^= std::byte{0xff};
  EXPECT_THROW((void)TelemetryFrame::decode(bad), IoError);

  // A frame claiming an absurd job count must be rejected before any
  // allocation is attempted (byte flips land in the njobs field).
  TelemetryFrame jobs = frame_of(0, 0, 0, 0);
  jobs.jobs.push_back({1, 2, 3});
  DataBuffer je = jobs.encode();
  bool threw_somewhere = false;
  for (std::size_t i = 0; i < je.size(); ++i) {
    DataBuffer mut = je.clone();
    mut.data()[i] = static_cast<std::byte>(0xff);
    try {
      (void)TelemetryFrame::decode(mut);
    } catch (const IoError&) {
      threw_somewhere = true;
    }
  }
  EXPECT_TRUE(threw_somewhere);
}

// ---- TelemetryHub ----------------------------------------------------------

TEST(TelemetryHub, TrimsToHistoryAndTracksArrival) {
  TelemetryHub hub(4);
  for (int i = 0; i < 10; ++i) {
    hub.add(frame_of(0, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i) * kMs, 0),
            static_cast<std::uint64_t>(i) * kMs);
  }
  EXPECT_EQ(hub.frames_received(), 10u);
  hub.for_each_series([](int node, const TelemetryHub::Series& s) {
    EXPECT_EQ(node, 0);
    ASSERT_EQ(s.frames.size(), 4u) << "rolling window trims to history";
    EXPECT_EQ(s.frames.front().seq, 6u);
    EXPECT_EQ(s.frames.back().seq, 9u);
    EXPECT_EQ(s.last_arrival_ns, 9u * kMs);
  });
  const auto latest = hub.latest();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest.at(0).seq, 9u);
}

TEST(TelemetryHub, AggregateSynthesizesPerNodeAndPerJobEntries) {
  TelemetryHub hub(8);
  TelemetryFrame f0 = frame_of(0, 4, 100, 21, 2, 3);
  f0.cache_hits = 3;
  f0.cache_misses = 1;
  f0.jobs.push_back({5, 10, 40});
  auto& c = f0.metrics.entries[{"sched.tasks_parked", 0}];
  c.kind = obs::MetricKind::Counter;
  c.count = 6;
  hub.add(f0, 100);
  TelemetryFrame f1 = frame_of(1, 2, 100, 9, 0, 1);
  f1.jobs.push_back({5, 7, 40});
  hub.add(f1, 100);

  const obs::MetricsSnapshot agg = hub.aggregate();
  EXPECT_EQ(agg.entries.at({"telemetry.frames", 0}).count, 5u) << "seq 4 -> 5 frames";
  EXPECT_EQ(agg.entries.at({"telemetry.tasks_executed", 0}).count, 21u);
  EXPECT_EQ(agg.entries.at({"telemetry.tasks_executed", 1}).count, 9u);
  EXPECT_DOUBLE_EQ(agg.entries.at({"telemetry.tasks_inflight", 0}).value, 2.0);
  EXPECT_DOUBLE_EQ(agg.entries.at({"telemetry.cache_hit_rate", 0}).value, 0.75);
  EXPECT_EQ(agg.entries.at({"sched.tasks_parked", 0}).count, 6u)
      << "embedded registry snapshots ride into the aggregate";
  EXPECT_EQ(agg.entries.at({"jobs.j5.tasks_done", -1}).count, 17u) << "summed across nodes";
  EXPECT_EQ(agg.entries.at({"jobs.j5.tasks_total", -1}).count, 40u);
  // And the whole thing exports as Prometheus text.
  const std::string prom = agg.to_prometheus();
  EXPECT_NE(prom.find("dooc_telemetry_tasks_executed{node=\"0\"} 21"), std::string::npos);
  EXPECT_NE(prom.find("dooc_jobs_j5_tasks_done 17"), std::string::npos);
}

// ---- Watchdog --------------------------------------------------------------

TEST(Watchdog, MissedHeartbeatRaisesOnceThenRecovers) {
  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=100,miss=3");
  TelemetryHub hub(16);
  Watchdog dog(cfg);

  // Both nodes report at t=0; node 1 then goes silent.
  hub.add(frame_of(0, 0, 0, 1, 1), 0);
  hub.add(frame_of(1, 0, 0, 1, 1), 0);
  EXPECT_TRUE(dog.poll(hub, 100 * kMs).empty()) << "1 interval of silence is fine";

  hub.add(frame_of(0, 1, 200 * kMs, 2, 1), 200 * kMs);
  std::vector<HealthEvent> events = dog.poll(hub, 400 * kMs);  // node 1 silent 4 intervals
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthKind::MissedHeartbeat);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_GT(events[0].value, events[0].threshold);
  EXPECT_EQ(dog.suspected(), std::set<int>{1});

  // Edge-triggered: still silent, no duplicate event. Node 0 keeps
  // heartbeating so only node 1 stays under suspicion.
  hub.add(frame_of(0, 2, 400 * kMs, 3, 1), 400 * kMs);
  EXPECT_TRUE(dog.poll(hub, 500 * kMs).empty());
  EXPECT_EQ(dog.suspected(), std::set<int>{1});

  // The node comes back: one Recovered, suspicion cleared.
  hub.add(frame_of(0, 3, 600 * kMs, 4, 1), 600 * kMs);
  hub.add(frame_of(1, 1, 600 * kMs, 2, 1), 600 * kMs);
  events = dog.poll(hub, 600 * kMs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthKind::Recovered);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_TRUE(dog.suspected().empty());
}

TEST(Watchdog, StalledQueueNeedsInflightWorkAndNoProgress) {
  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=100,stall=4");
  TelemetryHub hub(32);
  Watchdog dog(cfg);

  // Node 0: tasks_executed frozen at 5 with work queued. Node 1: also
  // frozen but idle (no inflight, no queue) -> not stalled, just done.
  for (int t = 0; t <= 6; ++t) {
    const auto now = static_cast<std::uint64_t>(t) * 100 * kMs;
    hub.add(frame_of(0, static_cast<std::uint64_t>(t), now, 5, /*inflight=*/2, /*queue=*/1),
            now);
    hub.add(frame_of(1, static_cast<std::uint64_t>(t), now, 5, 0, 0), now);
    const auto events = dog.poll(hub, now);
    if (t < 4) {
      EXPECT_TRUE(events.empty()) << "tick " << t << ": window not yet spanned";
    } else if (t == 4) {
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].kind, HealthKind::StalledQueue);
      EXPECT_EQ(events[0].node, 0);
    } else {
      EXPECT_TRUE(events.empty()) << "edge-triggered";
    }
  }
  // Progress resumes -> Recovered.
  hub.add(frame_of(0, 7, 700 * kMs, 6, 2, 1), 700 * kMs);
  const auto events = dog.poll(hub, 700 * kMs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthKind::Recovered);
}

TEST(Watchdog, StragglerByMedianRateTest) {
  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=100,zscore=10,slow=4");
  TelemetryHub hub(32);
  Watchdog dog(cfg);
  // Nodes 0-2 complete 8 tasks/interval; node 3 completes 1 -> median 8,
  // 1 * slow(4) = 4 < 8 trips the median test (zscore=10 disables z).
  feed(hub, 4, 8, 100 * kMs, {8, 8, 8, 1});
  const auto events = dog.poll(hub, 700 * kMs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthKind::Straggler);
  EXPECT_EQ(events[0].node, 3);
}

TEST(Watchdog, StragglerByZScoreTest) {
  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=100,zscore=1.5,slow=1");
  TelemetryHub hub(32);
  Watchdog dog(cfg);
  // Rates 10/10/10/10/2: one-sided z of the slow node is well past 1.5
  // (and only the slow node sits below the median, so slow=1 cannot flag
  // anyone else).
  feed(hub, 5, 8, 100 * kMs, {10, 10, 10, 10, 2});
  const auto events = dog.poll(hub, 700 * kMs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthKind::Straggler);
  EXPECT_EQ(events[0].node, 4);
}

TEST(Watchdog, FinishedNodeIsNotAStraggler) {
  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=100,zscore=1.5,slow=4");
  TelemetryHub hub(32);
  Watchdog dog(cfg);
  // Node 0 finished its share early: rate 0 with nothing queued or
  // running, while 3 busy peers keep completing. Idle != straggling —
  // the endgame of every run looks like this — so no verdict, and node
  // 0's zero rate must not drag the cluster distribution down either.
  for (int t = 0; t < 8; ++t) {
    const auto now = static_cast<std::uint64_t>(t) * 100 * kMs;
    hub.add(frame_of(0, static_cast<std::uint64_t>(t), now, 20, /*inflight=*/0, /*queue=*/0),
            now);
    for (int n = 1; n < 4; ++n) {
      hub.add(frame_of(n, static_cast<std::uint64_t>(t), now,
                       8 * static_cast<std::uint64_t>(t), /*inflight=*/1),
              now);
    }
  }
  EXPECT_TRUE(dog.poll(hub, 700 * kMs).empty());
}

TEST(Watchdog, StragglerByExecP99Test) {
  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=100,zscore=100,slow=1,p99=4");
  TelemetryHub hub(32);
  Watchdog dog(cfg);
  // Equal task rates (rate tests can't fire), but node 2's exec-time
  // histogram has a p99 far above the cluster's median per-node p99.
  for (int t = 0; t < 6; ++t) {
    const auto now = static_cast<std::uint64_t>(t) * 100 * kMs;
    for (int n = 0; n < 3; ++n) {
      TelemetryFrame f = frame_of(n, static_cast<std::uint64_t>(t), now,
                                  4 * static_cast<std::uint64_t>(t), 1);
      Log2Histogram h;
      for (int i = 0; i < 12; ++i) h.add(n == 2 ? 4000.0 : 100.0);
      auto& e = f.metrics.entries[{"sched.exec_us", n}];
      e.kind = obs::MetricKind::Histogram;
      e.hist = h;
      hub.add(f, now);
    }
  }
  const auto events = dog.poll(hub, 500 * kMs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthKind::Straggler);
  EXPECT_EQ(events[0].node, 2);
  EXPECT_NE(events[0].detail.find("p99"), std::string::npos);
}

TEST(Watchdog, HealthEventTextAndTraceEmission) {
  HealthEvent ev;
  ev.kind = HealthKind::Straggler;
  ev.node = 2;
  ev.ts_ns = 1500 * kMs;
  ev.value = 0.5;
  ev.threshold = 2.0;
  ev.detail = "rate 0.5/s vs median 4.0/s";
  const std::string text = ev.to_text();
  EXPECT_NE(text.find("straggler"), std::string::npos);
  EXPECT_NE(text.find("node 2"), std::string::npos);
  EXPECT_NE(text.find("rate 0.5/s"), std::string::npos);

  // Emitted into the trace as cat "health" with the _f64 args convention.
  obs::TraceSession::instance().start();
  emit_health_event(ev);
  const auto events = obs::TraceSession::instance().stop();
  const auto parsed = obs::parse_chrome_trace(obs::chrome_trace_json(events));
  bool found = false;
  for (const auto& p : parsed) {
    if (p.cat != "health") continue;
    found = true;
    EXPECT_EQ(p.name, "straggler");
    EXPECT_EQ(p.pid, 2);
    ASSERT_TRUE(p.args.count("value"));
    EXPECT_DOUBLE_EQ(p.args.at("value"), 0.5);
    ASSERT_TRUE(p.args.count("threshold"));
    EXPECT_DOUBLE_EQ(p.args.at("threshold"), 2.0);
  }
  EXPECT_TRUE(found);
}

// ---- DES replay under virtual time ----------------------------------------

namespace {

/// Per-node chains of durable-input tasks: `chain` tasks pinned to each of
/// `nodes` nodes, each charging the same est_flops.
sched::TaskGraph des_graph(solver::VirtualArrayCreator& creator, int nodes, int chain) {
  sched::TaskGraph g;
  for (int n = 0; n < nodes; ++n) {
    for (int i = 0; i < chain; ++i) {
      const std::string in = "m" + std::to_string(n) + "_" + std::to_string(i);
      creator.add_durable(in, 1 << 20, n);
      sched::Task t;
      t.name = "t" + std::to_string(n) + "_" + std::to_string(i);
      t.kind = "test";
      t.inputs.push_back({in, 0, 1 << 20});
      if (i > 0) {
        t.inputs.push_back({"c" + std::to_string(n) + "_" + std::to_string(i - 1), 0, 8});
      }
      t.outputs.push_back({"c" + std::to_string(n) + "_" + std::to_string(i), 0, 8});
      creator.create("c" + std::to_string(n) + "_" + std::to_string(i), 8, n);
      t.est_flops = 5e7;  // 0.1 s at the default 0.5 GF/s
      t.seq = i;
      t.preferred_node = n;
      g.add(std::move(t));
    }
  }
  g.build();
  return g;
}

}  // namespace

TEST(DesTelemetry, StragglerNodeIsFlaggedDeterministically) {
  solver::VirtualArrayCreator creator;
  const sched::TaskGraph g = des_graph(creator, 4, 20);

  sim::SimResources res;
  res.telemetry = TelemetryConfig::parse("on,interval=250,slow=4,zscore=100");
  res.node_compute_factor[3] = 8.0;  // node 3 is 8x slower

  const auto run = [&] {
    sim::SimEngine sim(4, res, creator.arrays());
    return sim.run(g);
  };
  const sim::SimMetrics a = run();
  EXPECT_GT(a.telemetry_frames, 0u);
  bool straggler3 = false;
  for (const auto& ev : a.health) {
    if (ev.kind == HealthKind::Straggler && ev.node == 3) straggler3 = true;
  }
  EXPECT_TRUE(straggler3) << "the 8x-slower node must be flagged";

  // Deterministic: a second run produces the identical verdict sequence.
  const sim::SimMetrics b = run();
  ASSERT_EQ(a.health.size(), b.health.size());
  for (std::size_t i = 0; i < a.health.size(); ++i) {
    EXPECT_EQ(a.health[i].kind, b.health[i].kind);
    EXPECT_EQ(a.health[i].node, b.health[i].node);
    EXPECT_EQ(a.health[i].ts_ns, b.health[i].ts_ns);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(DesTelemetry, TelemetryChargesNoVirtualCost) {
  solver::VirtualArrayCreator creator;
  const sched::TaskGraph g = des_graph(creator, 3, 12);

  sim::SimResources off;
  sim::SimEngine sim_off(3, off, creator.arrays());
  const double makespan_off = sim_off.run(g).makespan;

  sim::SimResources on = off;
  on.telemetry = TelemetryConfig::parse("on,interval=100");
  sim::SimEngine sim_on(3, on, creator.arrays());
  const sim::SimMetrics m = sim_on.run(g);
  // Telemetry charges nothing, but it does subdivide advance() steps at
  // tick boundaries, so allow float-associativity noise.
  EXPECT_NEAR(m.makespan, makespan_off, 1e-6 * makespan_off)
      << "virtual telemetry must not perturb the schedule";
  EXPECT_GT(m.telemetry_frames, 0u);
}

TEST(DesTelemetry, MutedNodeRaisesMissedHeartbeatUnderVirtualTime) {
  solver::VirtualArrayCreator creator;
  const sched::TaskGraph g = des_graph(creator, 3, 30);

  sim::SimResources res;
  res.telemetry = TelemetryConfig::parse("on,interval=250,miss=3");
  res.node_telemetry_mute_after[1] = 0.9;  // heartbeats stop ~1/3 in

  sim::SimEngine sim(3, res, creator.arrays());
  const sim::SimMetrics m = sim.run(g);
  bool missed1 = false;
  std::uint64_t when = 0;
  for (const auto& ev : m.health) {
    if (ev.kind == HealthKind::MissedHeartbeat && ev.node == 1) {
      missed1 = true;
      when = ev.ts_ns;
      break;
    }
  }
  ASSERT_TRUE(missed1);
  // Raised within 2 watchdog intervals of the threshold crossing: mute at
  // 0.9 s, last frame <= 0.9 s, threshold 3*250 ms -> must fire by ~2.15 s.
  EXPECT_LE(when, 2150 * kMs);
}

// ---- LocalTelemetry (in-process producer) ----------------------------------

TEST(LocalTelemetry, SamplesRegistryAndServesPrometheus) {
  auto& metrics = obs::Metrics::instance();
  metrics.counter("sched.tasks_executed", 0).add(12);
  metrics.counter("sched.tasks_executed", 1).add(7);
  metrics.gauge("sched.completion_queue_depth", 0).set(3);

  TelemetryConfig cfg = TelemetryConfig::parse("on,interval=3600000");  // no thread ticks
  LocalTelemetry lt(cfg, 2, "test");
  lt.sample_once(1 * kMs);
  lt.sample_once(2 * kMs);

  EXPECT_GE(lt.hub().frames_received(), 4u);
  const auto latest = lt.hub().latest();
  ASSERT_TRUE(latest.count(0));
  ASSERT_TRUE(latest.count(1));
  EXPECT_GE(latest.at(0).tasks_executed, 12u);
  EXPECT_GE(latest.at(1).tasks_executed, 7u);

  const std::string prom = lt.prometheus_text();
  EXPECT_NE(prom.find("dooc_telemetry_tasks_executed{node=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("dooc_telemetry_tasks_executed{node=\"1\"}"), std::string::npos);
}

// ---- Prometheus scrape endpoint --------------------------------------------

TEST(PromHttp, ServesProviderTextOverHttp) {
  obs::PromHttpServer server(0, [] {
    return std::string("# TYPE dooc_test counter\ndooc_test{node=\"2\"} 41\ndooc_up 1\n");
  });
  ASSERT_GT(server.port(), 0) << "port 0 resolves to an ephemeral port";

  const std::string body = obs::http_get("127.0.0.1", server.port());
  EXPECT_NE(body.find("dooc_test{node=\"2\"} 41"), std::string::npos);
  EXPECT_GE(server.requests(), 1u);

  const auto samples = obs::parse_prometheus(body);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "dooc_test");
  EXPECT_EQ(samples[0].node, 2);
  EXPECT_DOUBLE_EQ(samples[0].value, 41.0);
  EXPECT_EQ(samples[1].name, "dooc_up");
  EXPECT_EQ(samples[1].node, -1);
}

// ---- Log2Histogram merge/quantile edge cases (satellite) -------------------

TEST(Log2HistogramEdge, EmptyMergeEmptyStaysEmpty) {
  Log2Histogram a, b;
  a.merge(b);
  EXPECT_EQ(a.stats().count(), 0u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
}

TEST(Log2HistogramEdge, EmptyMergeNonEmptyAdoptsAndCommutes) {
  Log2Histogram filled;
  for (const double v : {2.0, 8.0, 32.0}) filled.add(v);

  Log2Histogram empty_first;
  empty_first.merge(filled);
  EXPECT_EQ(empty_first.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(empty_first.stats().min(), 2.0);
  EXPECT_DOUBLE_EQ(empty_first.stats().max(), 32.0);

  Log2Histogram filled_copy = filled;
  Log2Histogram empty;
  filled_copy.merge(empty);
  EXPECT_EQ(filled_copy.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(filled_copy.quantile(0.99), empty_first.quantile(0.99));
}

TEST(Log2HistogramEdge, SingleBucketQuantilesClampToExactExtremes) {
  Log2Histogram h;
  for (int i = 0; i < 5; ++i) h.add(10.0);  // all in bucket [8,16)
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Log2HistogramEdge, QuantileBoundsAreMinAndMax) {
  Log2Histogram h;
  for (const double v : {1.5, 3.0, 7.0, 700.0}) h.add(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 700.0);
  const double mid = h.quantile(0.5);
  EXPECT_GE(mid, 1.5);
  EXPECT_LE(mid, 700.0);
}

// ---- Histograms through the trace (dooc_tracecat --metrics merge) ----------

namespace {

/// What MetricsSampler::flush_once emits for one histogram, as parsed
/// events: two stats records plus one record per non-empty bucket.
std::vector<obs::ParsedEvent> hist_records(const std::string& name, int node,
                                           const Log2Histogram& h, double ts_us) {
  std::vector<obs::ParsedEvent> out;
  obs::ParsedEvent base;
  base.name = name;
  base.cat = "metrics_hist";
  base.phase = 'i';
  base.pid = node;
  base.ts_us = ts_us;
  const auto& st = h.stats();
  obs::ParsedEvent s1 = base;
  s1.args = {{"count", static_cast<double>(st.count())}, {"min", st.min()}, {"max", st.max()}};
  out.push_back(s1);
  obs::ParsedEvent s2 = base;
  s2.args = {{"sum", st.sum()}, {"mean", st.mean()}, {"m2", st.m2()}};
  out.push_back(s2);
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    const std::uint64_t c = h.bucket(static_cast<std::size_t>(b));
    if (c == 0) continue;
    obs::ParsedEvent ev = base;
    ev.args = {{"bucket", static_cast<double>(b)},
               {"bcount", static_cast<double>(c)},
               {"n", static_cast<double>(st.count())}};
    out.push_back(ev);
  }
  return out;
}

}  // namespace

TEST(TraceMetrics, TwoFileHistogramMergeSumsBucketsAcrossFiles) {
  // Two "processes" flushed the same histogram name: their buckets must
  // SUM on merge (the dooc_tracecat --metrics fix), not last-file-wins.
  Log2Histogram h1, h2;
  for (int i = 0; i < 10; ++i) h1.add(10.0);   // bucket [8,16)
  for (int i = 0; i < 30; ++i) h2.add(1000.0);  // bucket [512,1024)

  const auto file1 = hist_records("net.fetch_us", 0, h1, 50.0);
  const auto file2 = hist_records("net.fetch_us", 1, h2, 60.0);

  obs::MetricsSnapshot merged = obs::snapshot_from_trace(file1);
  merged.merge(obs::snapshot_from_trace(file2));

  // Different nodes: both entries survive independently.
  ASSERT_TRUE(merged.entries.count({"net.fetch_us", 0}));
  ASSERT_TRUE(merged.entries.count({"net.fetch_us", 1}));

  // Same (name, node) across two files — the collision case the old code
  // resolved by keeping the last file's histogram.
  const auto fileA = hist_records("net.exec_us", 0, h1, 50.0);
  const auto fileB = hist_records("net.exec_us", 0, h2, 60.0);
  obs::MetricsSnapshot byname = obs::snapshot_from_trace(fileA);
  byname.merge(obs::snapshot_from_trace(fileB));
  const auto& h = byname.entries.at({"net.exec_us", 0}).hist;
  EXPECT_EQ(h.stats().count(), 40u) << "10 + 30 samples, summed not replaced";
  EXPECT_DOUBLE_EQ(h.stats().min(), 10.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 1000.0);
  // Quantiles reflect the union: 10 low samples out of 40 put the median
  // and p99 in the high bucket, p10 in the low one.
  EXPECT_GE(h.quantile(0.5), 512.0);
  EXPECT_GE(h.quantile(0.99), 512.0);
  EXPECT_LE(h.quantile(0.1), 16.0);
}

TEST(TraceMetrics, RegistryHistogramRoundTripsThroughRealTrace) {
  // End-to-end over the real emitters: registry -> flush_once -> chrome
  // JSON -> parse -> snapshot_from_trace reconstructs count and extremes.
  auto& h = obs::Metrics::instance().histogram("tt.roundtrip_us", 5);
  obs::TraceSession::instance().start();
  h.add(3.0);
  h.add(900.0);
  h.add(900.0);
  obs::MetricsSampler::flush_once();
  const auto events = obs::TraceSession::instance().stop();
  const auto parsed = obs::parse_chrome_trace(obs::chrome_trace_json(events));

  const obs::MetricsSnapshot snap = obs::snapshot_from_trace(parsed);
  ASSERT_TRUE(snap.entries.count({"tt.roundtrip_us", 5}));
  const auto& entry = snap.entries.at({"tt.roundtrip_us", 5});
  EXPECT_EQ(entry.kind, obs::MetricKind::Histogram);
  EXPECT_EQ(entry.hist.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(entry.hist.stats().min(), 3.0);
  EXPECT_DOUBLE_EQ(entry.hist.stats().max(), 900.0);
  EXPECT_DOUBLE_EQ(entry.hist.quantile(1.0), 900.0);
}
