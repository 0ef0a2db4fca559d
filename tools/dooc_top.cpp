// dooc_top — live per-node / per-job view of a running DOoC cluster.
//
// Scrapes a Prometheus endpoint (the coordinator's --metrics-port, or a
// single daemon's) and renders a refreshing table: per-node task progress,
// queue depths, in-flight bytes, cache hit rate and health verdicts, plus
// per-job completion bars from the coordinator's aggregate.
//
//   dooc_top --port=9090 [--host=127.0.0.1] [--interval-ms=1000]
//            [--once] [--raw] [--file=PATH]
//
// --once prints one frame and exits (scriptable); --raw dumps the scrape
// body verbatim; --file renders from a saved scrape instead of HTTP (used
// by the tests, and handy with `curl -o`).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "obs/prom_http.hpp"

namespace {

struct NodeRow {
  double frames = 0;
  double tasks = 0;
  double inflight = 0;
  double queue = 0;
  double inflight_bytes = 0;
  double hit_rate = -1;  ///< -1 = unknown (no cache traffic yet)
  double trace_dropped = 0;
  double missed = 0, stalled = 0, straggler = 0, recovered = 0;
};

struct JobRow {
  double done = 0;
  double total = 0;
};

/// "dooc_jobs_j<ID>_tasks_done" -> ID, or -1 when the name is not a
/// per-job sample.
int job_id_of(const std::string& name, const char* suffix) {
  const std::string prefix = "dooc_jobs_j";
  if (name.rfind(prefix, 0) != 0) return -1;
  const std::string tail = name.substr(prefix.size());
  const auto pos = tail.find(suffix);
  if (pos == std::string::npos || pos == 0 || tail.substr(pos) != suffix) return -1;
  for (std::size_t i = 0; i < pos; ++i) {
    if (tail[i] < '0' || tail[i] > '9') return -1;
  }
  return std::atoi(tail.substr(0, pos).c_str());
}

std::string human_bytes(double b) {
  char buf[32];
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", b);
  }
  return buf;
}

std::string render(const std::string& text) {
  const std::vector<dooc::obs::PromSample> samples = dooc::obs::parse_prometheus(text);
  std::map<int, NodeRow> nodes;
  std::map<int, JobRow> jobs;
  for (const auto& s : samples) {
    if (const int j = job_id_of(s.name, "_tasks_done"); j >= 0) {
      jobs[j].done = s.value;
      continue;
    }
    if (const int j = job_id_of(s.name, "_tasks_total"); j >= 0) {
      jobs[j].total = s.value;
      continue;
    }
    if (s.node < 0) continue;
    NodeRow& row = nodes[s.node];
    if (s.name == "dooc_telemetry_frames") row.frames = s.value;
    else if (s.name == "dooc_telemetry_tasks_executed") row.tasks = s.value;
    else if (s.name == "dooc_telemetry_tasks_inflight") row.inflight = s.value;
    else if (s.name == "dooc_telemetry_queue_depth") row.queue = s.value;
    else if (s.name == "dooc_telemetry_inflight_bytes") row.inflight_bytes = s.value;
    else if (s.name == "dooc_telemetry_cache_hit_rate") row.hit_rate = s.value;
    else if (s.name == "dooc_telemetry_trace_dropped") row.trace_dropped = s.value;
    else if (s.name == "dooc_health_missed_heartbeat") row.missed = s.value;
    else if (s.name == "dooc_health_stalled_queue") row.stalled = s.value;
    else if (s.name == "dooc_health_straggler") row.straggler = s.value;
    else if (s.name == "dooc_health_recovered") row.recovered = s.value;
  }

  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-5s %-8s %-8s %-9s %-7s %-10s %-6s %-8s %s\n", "node",
                "frames", "tasks", "inflight", "queue", "infl_bytes", "hit%", "dropped",
                "health");
  out << buf;
  for (const auto& [node, row] : nodes) {
    std::string health;
    if (row.missed > row.recovered) health += "MISSED-HB ";
    if (row.stalled > 0) health += "STALLED ";
    if (row.straggler > 0) health += "STRAGGLER ";
    if (health.empty()) health = "ok";
    std::snprintf(buf, sizeof(buf), "%-5d %-8.0f %-8.0f %-9.0f %-7.0f %-10s %-6s %-8.0f %s\n",
                  node, row.frames, row.tasks, row.inflight, row.queue,
                  human_bytes(row.inflight_bytes).c_str(),
                  row.hit_rate < 0 ? "-" : std::to_string(static_cast<int>(row.hit_rate * 100 + 0.5)).c_str(),
                  row.trace_dropped, health.c_str());
    out << buf;
  }
  if (nodes.empty()) out << "(no per-node telemetry samples yet)\n";
  if (!jobs.empty()) {
    out << "\njobs:\n";
    for (const auto& [job, row] : jobs) {
      const double frac = row.total > 0 ? std::min(1.0, row.done / row.total) : 0.0;
      const int filled = static_cast<int>(frac * 30 + 0.5);
      std::string bar(static_cast<std::size_t>(filled), '#');
      bar.resize(30, '.');
      std::snprintf(buf, sizeof(buf), "  job %-4d [%s] %5.0f/%-5.0f (%3.0f%%)\n", job,
                    bar.c_str(), row.done, row.total, frac * 100.0);
      out << buf;
    }
  }
  return out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int run(const dooc::Options& opts) {
  using namespace dooc;
  const std::string file = opts.get("file");
  const int port = static_cast<int>(opts.get_int("port", 0));
  if (file.empty() && port <= 0) {
    std::fprintf(stderr,
                 "usage: dooc_top --port=P [--host=H] [--interval-ms=N] [--once] [--raw]\n"
                 "       dooc_top --file=PATH [--raw]\n");
    return 2;
  }
  const std::string host = opts.get("host", "127.0.0.1");
  const int interval_ms = static_cast<int>(opts.get_int("interval-ms", 1000));
  const bool once = opts.get_bool("once", false) || !file.empty();
  const bool raw = opts.get_bool("raw", false);

  while (true) {
    std::string text;
    try {
      text = file.empty() ? obs::http_get(host, port) : slurp(file);
    } catch (const std::exception& e) {
      if (once) {
        std::fprintf(stderr, "dooc_top: %s\n", e.what());
        return 1;
      }
      text.clear();  // endpoint not up yet; keep refreshing
    }
    if (!once) std::printf("\x1b[2J\x1b[H");  // clear screen, home cursor
    if (raw) {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      const std::string frame = render(text);
      std::fwrite(frame.data(), 1, frame.size(), stdout);
    }
    std::fflush(stdout);
    if (once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int main(int argc, char** argv) { return dooc::Options::run_tool("dooc_top", argc, argv, run); }
