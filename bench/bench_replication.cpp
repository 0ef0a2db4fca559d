// Hot-block replication sweep: a skewed-popularity workload (one hot block
// re-read by every node each round, a cold scan large enough to flush it
// under plain LRU) run on the real engine with DOOC_REPLICATION off vs on.
//
// Acceptance shape (gated by bench_replication_check):
//   * solver outputs bitwise identical with replication on (parity_ok);
//   * median wall time at least 5% lower with replication on
//     (wall_win_ok), both medians measured in the same process;
//   * replica traffic actually observed: promotions and replica hits > 0.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sched/engine.hpp"
#include "storage/storage_cluster.hpp"

using namespace dooc;

namespace {

constexpr int kNodes = 3;
constexpr int kRounds = 6;
constexpr int kColds = 24;
constexpr std::uint64_t kHotBytes = 2ull << 20;
constexpr std::uint64_t kColdBytes = 1ull << 20;
/// Smallest wall-time win that counts. A strict `on < off` passed about
/// half the time with hot blocks unprotected (equal medians); measured
/// wins with protection were 9-23%.
constexpr double kMinWallWin = 0.05;

std::string scratch_dir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dooc_repl_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

void import_array(storage::StorageNode& node, const std::string& name, std::uint64_t bytes,
                  std::uint64_t seed) {
  std::filesystem::create_directories(node.scratch_dir());
  const std::string path = node.scratch_dir() + "/" + name + ".src";
  std::vector<std::uint64_t> vals(bytes / 8);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (auto& v : vals) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(vals.data()), static_cast<std::streamsize>(bytes));
  }
  node.import_file(name, path, bytes);  // one block per array
}

struct Outcome {
  double makespan = 0.0;
  storage::StorageStats stats;
  std::vector<std::uint64_t> results;  ///< every task output, in graph order
};

/// One skewed-popularity run. Round structure (rounds serialized by an
/// 8-byte gate array): every node re-reads the shared hot block, then the
/// round's cold scan (24 x 1 MB across 3 nodes vs a 6 MB budget) flushes
/// node memory. Under LRU the hot block is gone again by the next round;
/// with replication it turns hot, is replicated onto its consumers and is
/// evicted only after every cold block, so the scan leaves it resident.
Outcome run_skewed(const std::string& replication_spec) {
  const std::string dir = scratch_dir(replication_spec.empty() ? "off" : "on");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  cfg.memory_budget = 6ull << 20;
  cfg.throttle_read_bw = 60e6;  // slow device: every reload is expensive
  cfg.replication = storage::ReplicationConfig::parse(replication_spec);
  storage::StorageCluster cluster(kNodes, cfg);

  import_array(cluster.node(0), "hot", kHotBytes, 7);
  for (int i = 0; i < kColds; ++i) {
    import_array(cluster.node(i % kNodes), "cold" + std::to_string(i), kColdBytes,
                 100 + static_cast<std::uint64_t>(i));
  }

  sched::TaskGraph g;
  const auto out_name = [](const char* kind, int r, int i) {
    return std::string(kind) + "_" + std::to_string(r) + "_" + std::to_string(i);
  };
  std::vector<std::string> out_order;
  for (int r = 0; r < kRounds; ++r) {
    const std::string gate = "gate_" + std::to_string(r);
    std::vector<storage::Interval> gate_inputs;
    for (int n = 0; n < kNodes; ++n) {
      const std::string out = out_name("hot_out", r, n);
      cluster.node(n).create_array(out, 8, 8);
      sched::Task t;
      t.name = out;
      t.kind = "hot-read";
      t.inputs = {{"hot", 0, kHotBytes}};
      if (r > 0) t.inputs.push_back({"gate_" + std::to_string(r - 1), 0, 8});
      t.outputs = {{out, 0, 8}};
      t.group = r;
      t.seq = n;
      t.preferred_node = n;
      t.work = [](sched::TaskContext& ctx) {
        // Checksum strided through the whole block: a stale replica (or a
        // torn fetch) changes the sum, so parity below catches it.
        const auto in = ctx.input(0).as<std::uint64_t>();
        std::uint64_t sum = 0;
        for (std::size_t k = 0; k < in.size(); k += 512) sum += in[k];
        ctx.output(0).as<std::uint64_t>()[0] = sum;
      };
      gate_inputs.push_back({out, 0, 8});
      out_order.push_back(out);
      g.add(std::move(t));
    }
    for (int i = 0; i < kColds; ++i) {
      const std::string out = out_name("cold_out", r, i);
      cluster.node(i % kNodes).create_array(out, 8, 8);
      sched::Task t;
      t.name = out;
      t.kind = "cold-scan";
      t.inputs = {{"cold" + std::to_string(i), 0, kColdBytes}};
      if (r > 0) t.inputs.push_back({"gate_" + std::to_string(r - 1), 0, 8});
      t.outputs = {{out, 0, 8}};
      t.group = r;
      t.seq = kNodes + i;
      t.preferred_node = i % kNodes;
      t.work = [](sched::TaskContext& ctx) {
        const auto in = ctx.input(0).as<std::uint64_t>();
        std::uint64_t sum = 0;
        for (std::size_t k = 0; k < in.size(); k += 512) sum += in[k];
        ctx.output(0).as<std::uint64_t>()[0] = sum;
      };
      gate_inputs.push_back({out, 0, 8});
      out_order.push_back(out);
      g.add(std::move(t));
    }
    cluster.node(0).create_array(gate, 8, 8);
    sched::Task t;
    t.name = gate;
    t.kind = "gate";
    t.inputs = std::move(gate_inputs);
    t.outputs = {{gate, 0, 8}};
    t.group = r;
    t.seq = kNodes + kColds;
    t.preferred_node = 0;
    t.work = [](sched::TaskContext& ctx) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
        sum += ctx.input(i).as<std::uint64_t>()[0];
      }
      ctx.output(0).as<std::uint64_t>()[0] = sum;
    };
    out_order.push_back(gate);
    g.add(std::move(t));
  }
  g.build();

  sched::Engine engine(cluster, sched::EngineConfig{});
  Outcome out;
  out.makespan = bench::time_seconds([&] { engine.run(g); });
  out.stats = cluster.total_stats();
  for (const std::string& name : out_order) {
    out.results.push_back(cluster.node(0).request_read({name, 0, 8}).get().as<std::uint64_t>()[0]);
  }

  std::printf("  [%s] wall %.3fs disk reads %llu replica hits %llu promotions %llu\n",
              replication_spec.empty() ? "off" : "on ", out.makespan,
              static_cast<unsigned long long>(out.stats.disk_reads),
              static_cast<unsigned long long>(out.stats.replica_hits),
              static_cast<unsigned long long>(out.stats.replica_promotions));
  std::filesystem::remove_all(dir);
  return out;
}

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

int main() {
  bench::JsonReport report;
  report.meta("bench", "replication");

  bench::section("skewed-popularity sweep — real engine, hot block vs LRU-flushing cold scan");
  std::printf("  (%d nodes, %d rounds, hot %llu MB re-read per node per round, cold scan "
              "%d x %llu MB, 6 MB budget, 60 MB/s device)\n",
              kNodes, kRounds, static_cast<unsigned long long>(kHotBytes >> 20), kColds,
              static_cast<unsigned long long>(kColdBytes >> 20));

  // Interleaved reps, medians — same discipline as the I/O model check so a
  // cold first run can't skew either mode.
  const std::string on_spec = "on,hot_threshold=2,decay=1048576";
  Outcome off[3];
  Outcome on[3];
  for (int rep = 0; rep < 3; ++rep) {
    off[rep] = run_skewed("");
    on[rep] = run_skewed(on_spec);
  }
  const double off_wall = median3(off[0].makespan, off[1].makespan, off[2].makespan);
  const double on_wall = median3(on[0].makespan, on[1].makespan, on[2].makespan);

  bench::Table table({"replication", "wall time (median/3)", "disk reads", "replica hits",
                      "promotions"});
  table.add_row({"off", bench::fmt("%.2f s", off_wall), std::to_string(off[0].stats.disk_reads),
                 "-", "-"});
  table.add_row({"on", bench::fmt("%.2f s", on_wall), std::to_string(on[0].stats.disk_reads),
                 std::to_string(on[0].stats.replica_hits),
                 std::to_string(on[0].stats.replica_promotions)});
  table.print();
  std::printf("(off: every round's cold scan flushes the hot block and each node re-reads it\n"
              " from the throttled device; on: the block crosses the hot threshold, replicates\n"
              " onto its consumers and is evicted only after every cold block, so its\n"
              " re-reads skip the device)\n");

  // Acceptance 1: bitwise-identical results. Replication must be invisible
  // to the numerics — same sums in every rep, both modes.
  bool parity = true;
  for (int rep = 0; rep < 3; ++rep) {
    parity = parity && off[rep].results == on[rep].results && off[rep].results == off[0].results;
  }
  // Acceptance 2: replication wins on wall time by kMinWallWin. Both
  // medians come from this process, interleaved, so host speed cancels out.
  const bool wall_win = on_wall < off_wall * (1.0 - kMinWallWin);
  // Acceptance 3: the mechanism actually engaged.
  const bool traffic =
      on[0].stats.replica_promotions > 0 && on[0].stats.replica_hits > 0 &&
      off[0].stats.replica_hits == 0;

  std::printf("\nresults bitwise identical across modes and reps: %s\n", parity ? "YES" : "NO");
  std::printf("wall time: on %.2f s < %.2f x off %.2f s: %s\n", on_wall, 1.0 - kMinWallWin,
              off_wall, wall_win ? "YES" : "NO");
  std::printf("replica traffic observed (promotions %llu, hits %llu): %s\n",
              static_cast<unsigned long long>(on[0].stats.replica_promotions),
              static_cast<unsigned long long>(on[0].stats.replica_hits),
              traffic ? "YES" : "NO");

  // A record, not report meta: dooc_benchdiff compares record fields only,
  // so this is what bench_replication_check diffs.
  report.add_record()
      .field("config", "skewed-popularity")
      .field("parity_ok", static_cast<std::uint64_t>(parity ? 1 : 0))
      .field("wall_win_ok", static_cast<std::uint64_t>(wall_win ? 1 : 0))
      .field("replica_traffic_ok", static_cast<std::uint64_t>(traffic ? 1 : 0))
      .field("off_wall_s", off_wall)
      .field("on_wall_s", on_wall)
      .field("real_replica_hits", on[0].stats.replica_hits)
      .field("real_replica_promotions", on[0].stats.replica_promotions);

  const int failures = (parity ? 0 : 1) + (wall_win ? 0 : 1) + (traffic ? 0 : 1);

  const std::string artifact = "BENCH_replication.json";
  if (!report.write(artifact)) {
    std::printf("FAILED to write %s\n", artifact.c_str());
    return 1;
  }
  std::printf("wrote %s\n", artifact.c_str());
  return failures == 0 ? 0 : 1;
}
