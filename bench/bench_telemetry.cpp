// Telemetry overhead + watchdog drill bench — the live-observability
// acceptance bench:
//   1 cadence   — a 4-node DES workload with telemetry on (interval=250ms):
//                 the frame count is an exact function of the cadence and a
//                 healthy uniform cluster raises no events (asserted). The
//                 DES charges telemetry no modeled cost, so it cannot
//                 measure an overhead;
//   2 straggler — one node's compute slowed 8x: the watchdog must flag
//                 exactly that node, deterministically, at a reproducible
//                 virtual detection time (asserted);
//   3 missed-hb — one node muted mid-run (the DES mirror of `kill -STOP`
//                 on a doocd): MissedHeartbeat must fire within 2 watchdog
//                 intervals of the silence threshold crossing (asserted);
//   4 realwall  — real-engine iterated-SpMV solves of 0.5-0.7 s each,
//                 telemetry off vs on in 7 pairs of two solves a side:
//                 the only overhead check. The bench fails when the
//                 median of the pairs' on/off wall ratios is 10% or more
//                 over 1; the wall fields are machine-dependent and
//                 excluded from the baseline diff.
//
// Phases 1-3 run under virtual time and diff exactly on any machine:
// BENCH_telemetry.json gates against bench/baselines/BENCH_telemetry.json
// via bench_telemetry_check.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/telemetry.hpp"
#include "sched/engine.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/array_creator.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"

using namespace dooc;
using obs::telemetry::HealthKind;
using obs::telemetry::TelemetryConfig;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::string scratch_dir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dooc_tele_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

constexpr int kNodes = 4;
constexpr int kChain = 20;
constexpr std::uint64_t kArrayBytes = 1ull << 20;

/// Per-node chains of compute tasks over durable inputs: enough virtual
/// seconds (~2.1s at 0.105s/task) for several watchdog windows.
sched::TaskGraph make_chains(solver::VirtualArrayCreator& creator, int nodes, int chain) {
  sched::TaskGraph g;
  for (int n = 0; n < nodes; ++n) {
    for (int i = 0; i < chain; ++i) {
      creator.add_durable("m" + std::to_string(n) + "_" + std::to_string(i), kArrayBytes, n);
      const std::string out = "c" + std::to_string(n) + "_" + std::to_string(i);
      creator.create(out, 8, n);
      sched::Task t;
      t.name = out;
      t.kind = "chain";
      t.inputs = {{"m" + std::to_string(n) + "_" + std::to_string(i), 0, kArrayBytes}};
      if (i > 0) t.inputs.push_back({"c" + std::to_string(n) + "_" + std::to_string(i - 1), 0, 8});
      t.outputs = {{out, 0, 8}};
      t.est_flops = 5e7;
      t.seq = i;
      t.preferred_node = n;
      g.add(std::move(t));
    }
  }
  g.build();
  return g;
}

sim::SimMetrics run_des(const sim::SimResources& res) {
  solver::VirtualArrayCreator creator;
  sched::TaskGraph g = make_chains(creator, kNodes, kChain);
  sim::SimEngine des(kNodes, res, creator.arrays());
  return des.run(g);
}

/// Iterations per Phase 4 solve: enough that one solve takes 0.5-0.7 s on a
/// 4-core host, so millisecond-scale scheduling noise cannot move a pair's
/// ratio by the 10% the check gates.
constexpr int kRealIterations = 640;
constexpr int kRealPairs = 7;

double run_real_wall(const char* tag, const char* telemetry_spec) {
  const std::string dir = scratch_dir(tag);
  if (telemetry_spec != nullptr) {
    ::setenv("DOOC_TELEMETRY", telemetry_spec, 1);
  } else {
    ::unsetenv("DOOC_TELEMETRY");
  }
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  storage::StorageCluster cluster(2, cfg);
  auto m = spmv::generate_uniform_gap(4096, 4096, 16.0, 0x7e1e);
  const auto owner = spmv::row_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 1e-3 * static_cast<double>(i); });
  solver::IteratedSpmvConfig config;
  config.iterations = kRealIterations;
  solver::IteratedSpmv driver(cluster, deployed, config);

  const std::uint64_t t0 = bench::now_ns();
  {
    sched::Engine engine(cluster, {});
    (void)driver.run(engine);
  }
  const double wall = bench::seconds_since(t0);
  ::unsetenv("DOOC_TELEMETRY");
  std::filesystem::remove_all(dir);
  return wall;
}

}  // namespace

int main() {
  bench::JsonReport report;
  report.meta("bench", "telemetry");
  report.meta("sim_nodes", static_cast<std::uint64_t>(kNodes));
  report.meta("chain_tasks", static_cast<std::uint64_t>(kChain));

  // -------------------------------------------------------------------------
  bench::section("Phase 1 — DES frame cadence: telemetry on, healthy cluster");

  sim::SimResources on;
  on.telemetry = TelemetryConfig::parse("on,interval=250");
  const sim::SimMetrics m_on = run_des(on);

  std::printf("  makespan %.6f s, %llu frames, %zu health events\n", m_on.makespan,
              static_cast<unsigned long long>(m_on.telemetry_frames), m_on.health.size());
  check(m_on.health.empty(), "a healthy uniform cluster must raise no events");
  check(m_on.telemetry_frames > 0, "telemetry on must produce frames");
  report.add_record()
      .field("scenario", "cadence")
      .field("telemetry_frames", m_on.telemetry_frames)
      .field("health_events", static_cast<std::uint64_t>(m_on.health.size()));

  // -------------------------------------------------------------------------
  bench::section("Phase 2 — straggler drill: node 3 computes 8x slower");

  sim::SimResources strag;
  strag.telemetry = TelemetryConfig::parse("on,interval=250,zscore=100,slow=4");
  strag.node_compute_factor[3] = 8.0;
  const sim::SimMetrics m_strag = run_des(strag);

  double detect_s = -1.0;
  int flagged = -1;
  for (const auto& ev : m_strag.health) {
    if (ev.kind == HealthKind::Straggler) {
      detect_s = static_cast<double>(ev.ts_ns) * 1e-9;
      flagged = ev.node;
      break;
    }
  }
  std::printf("  %zu health events; first straggler verdict: node %d at %.3f s\n",
              m_strag.health.size(), flagged, detect_s);
  check(flagged == 3, "the slowed node (3) must be the flagged straggler");
  check(detect_s > 0.0, "straggler must be detected during the run");
  report.add_record()
      .field("scenario", "straggler")
      .field("straggler_detected", static_cast<std::uint64_t>(flagged == 3 ? 1 : 0))
      .field("straggler_node", static_cast<std::uint64_t>(flagged < 0 ? 99 : flagged))
      .field("detect_s", detect_s)
      .field("makespan_s", m_strag.makespan)
      .field("health_events", static_cast<std::uint64_t>(m_strag.health.size()));

  // -------------------------------------------------------------------------
  bench::section("Phase 3 — missed-heartbeat drill: node 1 muted at t=0.9s");

  sim::SimResources mute;
  mute.telemetry = TelemetryConfig::parse("on,interval=250,miss=3");
  mute.node_telemetry_mute_after[1] = 0.9;
  const sim::SimMetrics m_mute = run_des(mute);

  double hb_detect_s = -1.0;
  int hb_node = -1;
  for (const auto& ev : m_mute.health) {
    if (ev.kind == HealthKind::MissedHeartbeat) {
      hb_detect_s = static_cast<double>(ev.ts_ns) * 1e-9;
      hb_node = ev.node;
      break;
    }
  }
  // Last frame before the mute lands at t=0.75; the silence threshold
  // (3 x 250ms) crosses at t=1.5; "within 2 watchdog intervals" = 2.0s.
  std::printf("  missed-heartbeat: node %d at %.3f s (threshold crossing 1.5s, budget 2.0s)\n",
              hb_node, hb_detect_s);
  check(hb_node == 1, "the muted node (1) must be the suspect");
  check(hb_detect_s > 0.0 && hb_detect_s <= 2.0,
        "missed heartbeat must fire within 2 watchdog intervals of the crossing");
  report.add_record()
      .field("scenario", "missed_heartbeat")
      .field("missed_detected", static_cast<std::uint64_t>(hb_node == 1 ? 1 : 0))
      .field("suspect_node", static_cast<std::uint64_t>(hb_node < 0 ? 99 : hb_node))
      .field("detect_s", hb_detect_s)
      .field("makespan_s", m_mute.makespan);

  // -------------------------------------------------------------------------
  bench::section("Phase 4 — real-engine wall overhead (median of 7 paired ratios)");

  // A pair runs off, on, on, off (or on, off, off, on in odd pairs), so
  // host load that drifts over the pair hits both sides alike, and each
  // side keeps the faster of its two solves, since interference from
  // other processes only ever slows a solve down.
  std::vector<double> walls_off;
  std::vector<double> walls_on;
  std::vector<double> ratios;
  for (int pair = 0; pair < kRealPairs; ++pair) {
    double off = 1e300;
    double on = 1e300;
    for (int k = 0; k < 4; ++k) {
      if ((k == 0 || k == 3) == (pair % 2 == 0)) {
        off = std::min(off, run_real_wall("off", nullptr));
      } else {
        on = std::min(on, run_real_wall("on", "on,interval=250"));
      }
    }
    std::printf("  pair %d: off %.4f s / on %.4f s (%+.2f%%)\n", pair, off, on,
                (on / off - 1.0) * 100.0);
    walls_off.push_back(off);
    walls_on.push_back(on);
    ratios.push_back(on / off);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double wall_off = median(walls_off);
  const double wall_on = median(walls_on);
  const double wall_pct = (median(ratios) - 1.0) * 100.0;
  std::printf("  median wall off %.4f s / on %.4f s; median paired overhead %+.2f%%\n",
              wall_off, wall_on, wall_pct);
  // Machine-dependent, so the bound is loose: this is the only overhead
  // check, and the wall fields stay out of the baseline diff.
  check(wall_pct < 10.0, "real-engine telemetry overhead over 10%");
  report.add_record()
      .field("scenario", "real_wall")
      .field("wall_off_s", wall_off)
      .field("wall_on_s", wall_on)
      .field("wall_overhead_pct", wall_pct);

  const std::string artifact = "BENCH_telemetry.json";
  if (!report.write(artifact)) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", artifact.c_str());
  if (failures != 0) {
    std::printf("%d acceptance check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("acceptance checks passed: cadence, straggler, missed-heartbeat, wall\n");
  return 0;
}
