// bench_net_smoke: the wire backend end to end, with real processes.
//
// Phase 1 spawns a 4-process doocd cluster over Unix sockets, runs the
// deterministic iterated-SpMV workload through the Coordinator, and
// asserts the gathered result is bitwise identical to the single-process
// sched::Engine on the same deployment. Phase 2 repeats the run and
// SIGKILLs one non-coordinator daemon mid-flight: the run must complete
// through re-queue and lineage recovery (the coordinator re-runs the
// producers of the outputs the dead daemon held) with the same bitwise
// result. After either phase the durable directory must hold exactly the
// deployed blocks: task outputs are never written there. After the clean
// phase every daemon must hold exactly its deployed blocks and the final
// iterate parts it homes: the coordinator released every partial,
// intermediate iterate and sync token once its last reader was done.
//
// Emitted BENCH_net.json: task placement is pinned and dispatch order is
// deterministic, so the traffic counters (cross-node fetch bytes,
// coordinator frames/bytes) are exact on any machine — bench_net_check
// diffs them against bench/baselines/BENCH_net.json with a tight
// threshold. Wall times and fetch latencies are machine-dependent and
// ignored by the gate.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "net/launch.hpp"
#include "net/socket_transport.hpp"
#include "net/spmv_job.hpp"

using namespace dooc;

namespace {

constexpr int kNodes = 4;

struct PhaseResult {
  bool ok = false;
  std::string error;
  net::RunResult run;
  std::vector<double> result;
  std::uint64_t cross_node_fetch_bytes = 0;
  std::uint64_t fetch_frames = 0;
  std::uint64_t durable_fallbacks = 0;
  std::uint64_t durable_files = 0;
  /// Daemons whose resident blocks are not exactly their deployed blocks
  /// and final iterates (clean phase only).
  std::vector<std::string> resident_errors;
  double fetch_p99_s = 0.0;
  std::uint64_t coord_frames_sent = 0;
  std::uint64_t coord_bytes_sent = 0;
  std::uint64_t coord_bytes_received = 0;
  double wall_s = 0.0;
};

/// One full cluster lifecycle: spawn, deploy, run (optionally killing
/// `kill_node` after `kill_after` completed tasks), gather, report, tear
/// down.
PhaseResult run_phase(const net::SpmvJob& job, const std::string& workdir,
                      net::NodeId kill_node, std::uint64_t kill_after) {
  namespace fs = std::filesystem;
  PhaseResult out;
  const std::uint64_t t0 = bench::now_ns();

  fs::create_directories(workdir + "/durable");
  net::LaunchConfig lcfg;
  lcfg.manifest = net::Manifest::local_unix(workdir, kNodes);
  lcfg.manifest_path = workdir + "/manifest.txt";
  lcfg.durable_dir = workdir + "/durable";
  net::ClusterLauncher launcher(lcfg);
  launcher.spawn_all();

  net::SocketTransportConfig tcfg;
  tcfg.self = net::kCoordinatorId;
  auto transport = net::SocketTransport::client(tcfg);
  for (net::NodeId i = 0; i < kNodes; ++i) {
    if (!transport->connect_peer(i, lcfg.manifest.nodes[i])) {
      out.error = "node " + std::to_string(i) + " did not come up";
      return out;
    }
  }

  net::CoordinatorConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.durable_dir = lcfg.durable_dir;
  net::Coordinator coord(*transport, ccfg);
  job.deploy(coord);
  const auto driver = job.build_graph();

  bool killed = false;
  if (kill_node >= 0) {
    coord.progress_hook = [&](std::uint64_t done) {
      if (!killed && done >= kill_after) {
        killed = true;
        launcher.kill_node(kill_node);
      }
    };
  }

  out.run = coord.run(driver->graph());
  if (!out.run.ok) {
    out.error = "run failed: " + out.run.error;
    launcher.terminate_all();
    return out;
  }
  out.result = job.gather(coord);
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(lcfg.durable_dir)) {
    ++out.durable_files;
  }

  // What each daemon should hold at the end: its deployed blocks and the
  // final iterate parts it homes.
  std::map<net::NodeId, std::pair<std::uint64_t, std::uint64_t>> expect_resident;
  const spmv::DeployedMatrix& m = job.matrix();
  const int k = m.grid.k();
  for (int u = 0; u < k; ++u) {
    const std::uint64_t part_bytes = m.grid.part_size(u) * sizeof(double);
    for (int v = 0; v < k; ++v) {
      const auto idx = static_cast<std::size_t>(u) * k + v;
      auto& [blocks, bytes] = expect_resident[m.owner[idx]];
      blocks += 1;
      bytes += m.bytes[idx];
    }
    for (const std::string& part :
         {spmv::BlockGrid::vector_name("x", 0, u),
          spmv::BlockGrid::vector_name("x", job.config().iterations, u)}) {
      auto& [blocks, bytes] = expect_resident[coord.home_of(part)];
      blocks += 1;
      bytes += part_bytes;
    }
  }

  for (const auto& [id, rep] : coord.collect_reports()) {
    const auto [blocks, bytes] = expect_resident[id];
    if (rep.blocks_resident != blocks || rep.bytes_resident != bytes) {
      out.resident_errors.push_back(
          "node " + std::to_string(id) + " holds " + std::to_string(rep.blocks_resident) +
          " blocks (" + std::to_string(rep.bytes_resident) + " B), want " +
          std::to_string(blocks) + " (" + std::to_string(bytes) + " B)");
    }
    out.cross_node_fetch_bytes += rep.fetch_bytes_in;
    out.fetch_frames += rep.fetches_issued;
    out.durable_fallbacks += rep.durable_fallbacks;
    out.fetch_p99_s = std::max(out.fetch_p99_s, rep.fetch_p99_s);
  }
  const net::TransportCounters tc = transport->counters();
  out.coord_frames_sent = tc.frames_sent;
  out.coord_bytes_sent = tc.bytes_sent;
  out.coord_bytes_received = tc.bytes_received;

  coord.shutdown_cluster();
  transport->close();
  const int failures = launcher.wait_all(5000);
  // The killed daemon was already reaped by kill_node(); survivors must
  // exit cleanly.
  if (failures > 0) {
    out.error = std::to_string(failures) + " daemons exited abnormally";
    return out;
  }
  out.wall_s = bench::seconds_since(t0);
  out.ok = true;
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  Log::set_level(LogLevel::Error);

  net::SpmvJobConfig jcfg;
  jcfg.n = 2048;
  jcfg.grid_k = 4;
  jcfg.iterations = 3;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);

  const std::string root = "/tmp/bench_net_smoke." + std::to_string(::getpid());
  fs::create_directories(root + "/scratch");
  int failures = 0;

  bench::section("Wire backend smoke — 4 doocd processes, Unix sockets, iterated SpMV");
  const std::vector<double> expect = job.reference(root + "/scratch");

  const PhaseResult clean = run_phase(job, root + "/clean", -1, 0);
  if (!clean.ok) {
    std::fprintf(stderr, "FAIL: clean phase: %s\n", clean.error.c_str());
    fs::remove_all(root);
    return 1;
  }
  const bool clean_parity = bitwise_equal(clean.result, expect);
  if (!clean_parity) {
    std::printf("FAIL: clean run is not bitwise identical to the in-process engine\n");
    ++failures;
  }

  const PhaseResult kill = run_phase(job, root + "/kill", /*kill_node=*/2, /*kill_after=*/10);
  if (!kill.ok) {
    std::fprintf(stderr, "FAIL: kill phase: %s\n", kill.error.c_str());
    fs::remove_all(root);
    return 1;
  }
  const bool kill_parity = bitwise_equal(kill.result, expect);
  if (!kill_parity) {
    std::printf("FAIL: post-failover result is not bitwise identical\n");
    ++failures;
  }
  if (kill.run.dead_nodes.size() != 1) {
    std::printf("FAIL: expected exactly one dead node, saw %zu\n", kill.run.dead_nodes.size());
    ++failures;
  }

  // A killed daemon's re-derived outputs are never released (a re-run's
  // finish releases nothing), so only the clean phase must end lean.
  for (const std::string& error : clean.resident_errors) {
    std::printf("FAIL: clean phase: %s\n", error.c_str());
    ++failures;
  }
  const bool resident_ok = clean.resident_errors.empty();

  const std::uint64_t deployed = static_cast<std::uint64_t>(jcfg.grid_k) * (jcfg.grid_k + 1);
  for (const PhaseResult* phase : {&clean, &kill}) {
    if (phase->durable_files != deployed) {
      std::printf("FAIL: the durable directory holds %llu files, want the %llu deployed blocks\n",
                  static_cast<unsigned long long>(phase->durable_files),
                  static_cast<unsigned long long>(deployed));
      ++failures;
    }
  }

  bench::Table table({"phase", "tasks", "wall", "fetch frames", "fetch bytes", "durable_fb",
                      "fetch p99", "parity"});
  table.add_row({"clean", std::to_string(clean.run.tasks_executed),
                 bench::fmt("%.3f s", clean.wall_s), std::to_string(clean.fetch_frames),
                 std::to_string(clean.cross_node_fetch_bytes),
                 std::to_string(clean.durable_fallbacks),
                 bench::fmt("%.1f us", clean.fetch_p99_s * 1e6),
                 clean_parity ? "bitwise" : "MISMATCH"});
  table.add_row({"kill node 2", std::to_string(kill.run.tasks_executed),
                 bench::fmt("%.3f s", kill.wall_s), std::to_string(kill.fetch_frames),
                 std::to_string(kill.cross_node_fetch_bytes),
                 std::to_string(kill.durable_fallbacks),
                 bench::fmt("%.1f us", kill.fetch_p99_s * 1e6),
                 kill_parity ? "bitwise" : "MISMATCH"});
  table.print();

  bench::JsonReport report;
  report.meta("bench", "net");
  report.meta("nodes", static_cast<std::uint64_t>(kNodes));
  report.meta("n", jcfg.n);
  report.meta("grid_k", static_cast<std::uint64_t>(jcfg.grid_k));
  report.meta("iterations", static_cast<std::uint64_t>(jcfg.iterations));
  report.add_record()
      .field("scenario", "clean_4proc_unix")
      .field("tasks_total", clean.run.tasks_total)
      .field("tasks_executed", clean.run.tasks_executed)
      .field("cross_node_fetch_bytes", clean.cross_node_fetch_bytes)
      .field("fetch_frames", clean.fetch_frames)
      .field("released", clean.run.released)
      .field("release_frames", clean.run.release_frames)
      .field("coord_frames_sent", clean.coord_frames_sent)
      .field("coord_bytes_sent", clean.coord_bytes_sent)
      .field("coord_bytes_received", clean.coord_bytes_received)
      .field("parity_ok", static_cast<std::uint64_t>(clean_parity ? 1 : 0))
      .field("resident_ok", static_cast<std::uint64_t>(resident_ok ? 1 : 0))
      .field("wall_s", clean.wall_s)
      .field("fetch_p99_s", clean.fetch_p99_s);
  // Failover traffic depends on where the kill lands in the schedule, so
  // only the invariants (completion + parity) are gate-worthy here.
  report.add_record()
      .field("scenario", "kill_node2_after10")
      .field("tasks_total", kill.run.tasks_total)
      .field("tasks_executed", kill.run.tasks_executed)
      .field("dead_nodes", static_cast<std::uint64_t>(kill.run.dead_nodes.size()))
      .field("parity_ok", static_cast<std::uint64_t>(kill_parity ? 1 : 0))
      .field("wall_s", kill.wall_s)
      .field("fetch_p99_s", kill.fetch_p99_s);

  const std::string artifact = "BENCH_net.json";
  if (!report.write(artifact)) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    fs::remove_all(root);
    return 2;
  }
  std::printf("\nwrote %s\n", artifact.c_str());
  fs::remove_all(root);
  if (failures != 0) {
    std::printf("%d acceptance check(s) FAILED\n", failures);
    return 1;
  }
  std::printf(
      "acceptance checks passed: both phases bitwise-match the in-process engine, and every "
      "daemon ends the clean phase holding only deployed blocks and final iterates\n");
  return 0;
}
