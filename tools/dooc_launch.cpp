// dooc_launch — spawn an N-process doocd cluster on this machine, run a
// workload through it, collect per-node reports/metrics/traces, tear down.
//
//   dooc_launch --nodes=4 [--transport=unix|tcp] [--base-port=7400]
//               [--workdir=DIR] [--workload=spmv] [--n=2048] [--grid-k=4]
//               [--iterations=3] [--exec-threads=1] [--verify]
//               [--trace] [--kill-node=I --kill-after-tasks=T]
//               [--stop-node=I --stop-after-tasks=T]
//               [--telemetry=SPEC] [--metrics-port=P]
//               [--node-metrics-base-port=P]
//               [--metrics-out=FILE] [--log-level=LVL]
//
// --verify re-runs the same workload through the single-process engine and
// compares result vectors bitwise. --kill-node SIGKILLs one daemon after T
// completed tasks to exercise re-queue and lineage recovery: the
// coordinator re-runs the producers of the outputs the daemon held.
// --stop-node SIGSTOPs one instead (sockets stay open, no PeerDown): the
// straggler drill — only the telemetry watchdog notices, raising a
// missed-heartbeat HealthEvent; a watcher thread SIGCONTs the node as
// soon as the coordinator suspects it (suspicion never reschedules, so a
// frozen node's tasks wait for the thaw), and again before teardown.
// --telemetry=SPEC (DOOC_TELEMETRY grammar, e.g. "on,interval=100") turns
// on live telemetry for the coordinator and every daemon. --metrics-port
// serves the coordinator's cluster-wide aggregate as Prometheus text on
// 127.0.0.1; --node-metrics-base-port=P gives node n its own scrape
// endpoint on port P+n.
// --metrics-out writes the merged per-node counters in Prometheus text
// format. Traces land in <workdir>/traces/node<i>.json, one per real pid.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/log.hpp"
#include "common/options.hpp"
#include "net/launch.hpp"
#include "net/socket_transport.hpp"
#include "net/spmv_job.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_http.hpp"
#include "obs/telemetry.hpp"

int run(const dooc::Options& opts) {
  using namespace dooc;
  namespace fs = std::filesystem;
  Log::set_level(Log::parse_level(opts.get("log-level", "info")));

  const int nodes = static_cast<int>(opts.get_int("nodes", 4));
  if (nodes < 1 || opts.get("workload", "spmv") != "spmv") {
    std::fprintf(stderr, "dooc_launch: --nodes must be >= 1 and --workload=spmv\n");
    return 2;
  }

  // Every value is read and every spec parsed before anything is spawned:
  // a malformed one exits 2 here (run_tool) instead of inside each daemon.
  const std::string workdir =
      opts.get("workdir", "/tmp/dooc_launch." + std::to_string(::getpid()));
  const std::string durable_dir = workdir + "/durable";
  const std::string trace_dir = workdir + "/traces";
  const bool trace = opts.get_bool("trace", false);
  net::LaunchConfig lcfg;
  lcfg.manifest = opts.get("transport", "unix") == "tcp"
                      ? net::Manifest::local_tcp(
                            static_cast<int>(opts.get_int("base-port", 7400)), nodes)
                      : net::Manifest::local_unix(workdir, nodes);
  lcfg.manifest_path = workdir + "/manifest.txt";
  lcfg.durable_dir = durable_dir;
  lcfg.doocd_path = opts.get("doocd");
  lcfg.trace_dir = trace ? trace_dir : "";
  lcfg.telemetry_spec = opts.get("telemetry");
  lcfg.metrics_base_port = static_cast<int>(opts.get_int("node-metrics-base-port", 0));
  lcfg.exec_threads = static_cast<int>(opts.get_int("exec-threads", 1));
  lcfg.log_level = opts.get("log-level", "warn");
  (void)obs::telemetry::TelemetryConfig::parse(lcfg.telemetry_spec);
  net::SpmvJobConfig jcfg;
  jcfg.n = static_cast<std::uint64_t>(opts.get_int("n", 2048));
  jcfg.grid_k = static_cast<int>(opts.get_int("grid-k", 4));
  jcfg.iterations = static_cast<int>(opts.get_int("iterations", 3));
  jcfg.num_nodes = nodes;
  const int metrics_port = static_cast<int>(opts.get_int("metrics-port", 0));
  const auto kill_node = static_cast<net::NodeId>(opts.get_int("kill-node", -1));
  const auto kill_after = static_cast<std::uint64_t>(opts.get_int("kill-after-tasks", 0));
  const auto stop_node = static_cast<net::NodeId>(opts.get_int("stop-node", -1));
  const auto stop_after = static_cast<std::uint64_t>(opts.get_int("stop-after-tasks", 0));

  // The coordinator follows the same telemetry policy as the daemons
  // (CoordinatorConfig resolves from DOOC_TELEMETRY).
  if (!lcfg.telemetry_spec.empty()) {
    ::setenv("DOOC_TELEMETRY", lcfg.telemetry_spec.c_str(), 1);
  }
  fs::create_directories(durable_dir);
  if (trace) fs::create_directories(trace_dir);

  try {
    net::ClusterLauncher launcher(lcfg);
    launcher.spawn_all();

    net::SocketTransportConfig tcfg;
    tcfg.self = net::kCoordinatorId;
    auto transport = net::SocketTransport::client(tcfg);
    for (net::NodeId i = 0; i < nodes; ++i) {
      if (!transport->connect_peer(i, lcfg.manifest.nodes[i])) {
        std::fprintf(stderr, "dooc_launch: node %d did not come up\n", i);
        return 1;
      }
    }
    std::printf("cluster up: %d nodes (%s)\n", nodes,
                lcfg.manifest.nodes[0].to_string().c_str());

    net::CoordinatorConfig ccfg;
    ccfg.num_nodes = nodes;
    ccfg.durable_dir = durable_dir;
    net::Coordinator coord(*transport, ccfg);

    const net::SpmvJob job(jcfg);
    job.deploy(coord);
    const auto driver = job.build_graph();

    // Coordinator-side scrape endpoint: the hub's cluster-wide aggregate
    // plus the watchdog's health counters.
    std::unique_ptr<obs::PromHttpServer> scrape;
    if (metrics_port > 0) {
      scrape = std::make_unique<obs::PromHttpServer>(
          metrics_port, [&coord] { return coord.telemetry_prometheus(); });
      std::printf("metrics on http://127.0.0.1:%d/metrics\n", scrape->port());
    }

    bool killed = false;
    std::atomic<bool> stopped{false};
    if (kill_node >= 0 || stop_node >= 0) {
      coord.progress_hook = [&](std::uint64_t done) {
        if (kill_node >= 0 && !killed && done >= kill_after) {
          killed = true;
          std::printf("killing node %d (pid %d) after %" PRIu64 " tasks\n", kill_node,
                      static_cast<int>(launcher.pid(kill_node)), done);
          launcher.kill_node(kill_node);
        }
        if (stop_node >= 0 && !stopped && done >= stop_after) {
          stopped = true;
          std::printf("freezing node %d (pid %d) after %" PRIu64 " tasks (SIGSTOP)\n",
                      stop_node, static_cast<int>(launcher.pid(stop_node)), done);
          launcher.stop_node(stop_node);
        }
      };
    }

    // The thaw watcher: suspicion never alters scheduling, so a frozen
    // node's tasks simply wait — the drill completes by SIGCONTing the
    // daemon the moment the coordinator's watchdog suspects it. The
    // detection itself is the acceptance: it happens well before any TCP
    // timeout would fire.
    std::atomic<bool> run_done{false};
    std::thread thaw;
    if (stop_node >= 0) {
      thaw = std::thread([&] {
        while (!run_done.load()) {
          if (stopped.load() && coord.suspected_nodes().count(stop_node) != 0) {
            std::printf("coordinator suspects node %d — thawing it (SIGCONT)\n", stop_node);
            launcher.resume_node(stop_node);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    }

    const net::RunResult run = coord.run(driver->graph());
    run_done.store(true);
    if (thaw.joinable()) thaw.join();
    // Belt and braces: a SIGSTOPped daemon cannot process Shutdown and
    // would be counted an abnormal exit (SIGCONT on a running pid is a
    // no-op).
    if (stopped.load()) launcher.resume_node(stop_node);
    if (!run.ok) {
      std::fprintf(stderr, "dooc_launch: run failed: %s\n", run.error.c_str());
      launcher.terminate_all();
      return 1;
    }
    std::printf("run ok: %" PRIu64 "/%" PRIu64 " tasks in %.3fs (%" PRIu64
                " retries, %" PRIu64 " re-queued after death, %" PRIu64
                " re-derived, %zu dead nodes)\n",
                run.tasks_executed, run.tasks_total, run.makespan_s, run.retries,
                run.requeued_after_death, run.rederived, run.dead_nodes.size());
    for (const auto& ev : run.health_events) {
      std::printf("health: %s\n", ev.to_text().c_str());
    }
    if (!run.suspected_nodes.empty()) {
      std::printf("suspected at run end:");
      for (const net::NodeId n : run.suspected_nodes) std::printf(" %d", n);
      std::printf("\n");
    }

    const std::vector<double> result = job.gather(coord);
    if (opts.get_bool("verify", false)) {
      const std::string scratch = workdir + "/scratch";
      fs::create_directories(scratch);
      const std::vector<double> expect = job.reference(scratch);
      if (result.size() != expect.size() ||
          std::memcmp(result.data(), expect.data(), result.size() * sizeof(double)) != 0) {
        std::fprintf(stderr, "dooc_launch: VERIFY FAILED — wire result != in-process result\n");
        launcher.terminate_all();
        return 1;
      }
      std::printf("verify ok: bitwise identical to the in-process engine (%zu doubles)\n",
                  result.size());
    }

    // Per-node reports (and merged metrics) before tearing the cluster down.
    const auto reports = coord.collect_reports();
    obs::MetricsSnapshot merged;
    std::printf("%-5s %-8s %-7s %-12s %-9s %-12s %-10s %s\n", "node", "pid", "tasks",
                "bytes_stored", "fetches", "fetch_bytes", "durable_fb", "trace");
    for (const auto& [id, rep] : reports) {
      std::printf("%-5d %-8" PRIu64 " %-7" PRIu64 " %-12" PRIu64 " %-9" PRIu64 " %-12" PRIu64
                  " %-10" PRIu64 " %s\n",
                  id, rep.os_pid, rep.tasks_executed, rep.bytes_stored, rep.fetches_issued,
                  rep.fetch_bytes_in, rep.durable_fallbacks,
                  rep.trace_path.empty() ? "-" : rep.trace_path.c_str());
      auto& entry = merged.entries[{"dooc_node_tasks_executed", id}];
      entry.kind = obs::MetricKind::Counter;
      entry.count = rep.tasks_executed;
      auto& fb = merged.entries[{"dooc_node_fetch_bytes_in", id}];
      fb.kind = obs::MetricKind::Counter;
      fb.count = rep.fetch_bytes_in;
      auto& df = merged.entries[{"dooc_node_durable_fallbacks", id}];
      df.kind = obs::MetricKind::Counter;
      df.count = rep.durable_fallbacks;
    }
    if (const std::string out = opts.get("metrics-out"); !out.empty()) {
      if (FILE* f = std::fopen(out.c_str(), "w"); f != nullptr) {
        const std::string text = merged.to_prometheus();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("metrics -> %s\n", out.c_str());
      }
    }

    coord.shutdown_cluster();
    transport->close();
    // kill_node() already reaped the killed daemon, so any abnormal exit
    // wait_all() still sees is unexpected.
    const int failures = launcher.wait_all(5000);
    if (failures > 0) {
      std::fprintf(stderr, "dooc_launch: %d nodes exited abnormally\n", failures);
      return 1;
    }
    std::printf("teardown clean\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dooc_launch: %s\n", e.what());
    return 1;
  }
}

int main(int argc, char** argv) { return dooc::Options::run_tool("dooc_launch", argc, argv, run); }
