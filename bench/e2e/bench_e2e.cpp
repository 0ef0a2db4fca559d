// bench_e2e — the end-to-end solver benchmark and its per-layer budget.
//
//   bench_e2e [--workload=all|NAME] [--seed=N] [--seconds=S] [--trace=0|1]
//             [--out=DIR] [--scratch=DIR]
//   bench_e2e --smoke --benchmark-json=BENCHMARK.json [--out=DIR] [--scratch=DIR]
//   bench_e2e --compare=PARENT.json,CHANGE.json [--benchmark-json=BENCHMARK.json]
//
// A run prints every metric by name with its unit, writes DIR/bench_e2e.json
// (per workload: each end-to-end metric's median, quartiles and n, the
// per-layer metrics, the effective config), and, for a single workload,
// ends stdout with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace=0, the per-layer ones
// with --trace=1. The exit status is 1 when a correctness check failed and
// 2 on bad usage. See README.md for the workloads and the metric tables.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "e2e.hpp"

using namespace dooc;
using namespace dooc::e2e;

namespace {

/// Variables the library reads when a config field is left unset; any of
/// them would silently change what is measured.
constexpr const char* kPolicyEnv[] = {"DOOC_CODEC",     "DOOC_REPLICATION", "DOOC_FAULTS",
                                      "DOOC_TELEMETRY", "DOOC_TRACE",       "DOOC_JOBS",
                                      "DOOC_LOG"};

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles by Python's statistics.quantiles(n=4), the
/// 'exclusive' method.
Summary summarize_samples(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    s.median = s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&v](long i) {
    const long len = static_cast<long>(v.size());
    const long m = len + 1;
    const long j = std::clamp(i * m / 4, 1L, len - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            v[static_cast<std::size_t>(j)] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.median = quartile(2);
  s.q3 = quartile(3);
  return s;
}

std::vector<std::pair<MetricDef, Summary>> end_to_end(const WorkloadResult& r) {
  std::vector<double> speedup;
  for (std::size_t i = 0; i < r.solve_s.size() && i < r.serial_s.size(); ++i) {
    speedup.push_back(r.solve_s[i] > 0.0 ? r.serial_s[i] / r.solve_s[i] : 0.0);
  }
  const std::vector<double>* samples[] = {&r.solve_s, &speedup, &r.cpu_s, &r.setup_s, &r.rss_mb};
  std::vector<std::pair<MetricDef, Summary>> out;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.emplace_back(kEndToEnd[i], summarize_samples(*samples[i]));
  }
  return out;
}

struct Reported {
  std::string name;
  std::string unit;
  double value;
};

/// What a single-workload run reports: every end-to-end metric (median)
/// without tracing, every per-layer metric with it.
std::vector<Reported> reported_metrics(const WorkloadResult& r, bool trace) {
  std::vector<Reported> out;
  if (trace) {
    for (const MetricDef& m : kPerLayer) {
      const auto it = r.layers.find(m.name);
      out.push_back({m.name, m.unit, it != r.layers.end() ? it->second : 0.0});
    }
  } else {
    for (const auto& [m, s] : end_to_end(r)) out.push_back({m.name, m.unit, s.median});
  }
  return out;
}

double fail_ratio(const WorkloadResult& r) {
  return r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
}

// ---- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(const WorkloadResult& r, bool trace) {
  std::string metrics;
  for (const Reported& m : reported_metrics(r, trace)) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quote(m.name) + ": {\"value\": " + num(m.value) + ", \"unit\": " + quote(m.unit) + "}";
  }
  return "{\"correct\": " + std::string(r.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) + ", \"failed\": " +
         std::to_string(r.failed) + ", \"metrics\": {" + metrics + "}}";
}

std::string workload_json(const WorkloadResult& r, bool trace) {
  std::ostringstream os;
  os << "    " << quote(r.name) << ": {\n";
  os << "      \"correct\": " << (r.correct() ? "true" : "false") << ", \"attempted\": "
     << r.attempted << ", \"failed\": " << r.failed << ", \"fail_ratio\": " << num(fail_ratio(r))
     << ",\n      \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) os << (i ? ", " : "") << quote(r.errors[i]);
  os << "],\n      \"gen_s\": " << num(r.gen_s) << ", \"serial_ref_s\": "
     << num(summarize_samples(r.serial_s).median)
     << ",\n      \"end_to_end\": {\n";
  const auto e2e = end_to_end(r);
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const auto& [m, s] = e2e[i];
    os << "        " << quote(m.name) << ": {\"unit\": " << quote(m.unit) << ", \"median\": "
       << num(s.median) << ", \"q1\": " << num(s.q1) << ", \"q3\": " << num(s.q3)
       << ", \"n\": " << s.n << "}" << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  os << "      },\n      \"per_layer\": {";
  if (trace) {
    const auto layers = reported_metrics(r, true);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      os << (i ? ",\n" : "\n") << "        " << quote(layers[i].name) << ": {\"unit\": "
         << quote(layers[i].unit) << ", \"value\": " << num(layers[i].value) << "}";
    }
    os << "\n      ";
  }
  os << "},\n      \"checks\": {";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    os << (i ? ", " : "") << quote(r.checks[i].first) << ": " << num(r.checks[i].second);
  }
  os << "},\n      \"config\": {";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    os << (i ? ", " : "") << quote(r.config[i].first) << ": " << quote(r.config[i].second);
  }
  os << "}\n    }";
  return os.str();
}

/// One workload run as the parent process sees it.
struct Entry {
  std::string name;
  bool ok = false;  ///< ran, every check passed, no solve failed
  double solve_median = 0.0;
  std::string result_line;
  std::string json;  ///< its object in bench_e2e.json
};

/// spmv_cluster.solve_s / spmv_incore.solve_s: the socket-vs-in-process
/// gap on one schedule, when both ran in this invocation (0 otherwise).
double socket_over_inproc(const std::vector<Entry>& entries) {
  double inproc = 0.0;
  double socket = 0.0;
  for (const Entry& e : entries) {
    if (e.name == "spmv_incore") inproc = e.solve_median;
    if (e.name == "spmv_cluster") socket = e.solve_median;
  }
  return inproc > 0.0 && socket > 0.0 ? socket / inproc : 0.0;
}

void write_ledger(const std::string& path, const RunOptions& o, const std::vector<Entry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"benchmark\": \"bench_e2e\",\n  \"seed\": " << o.seed
      << ",\n  \"seconds\": " << num(o.seconds) << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
      << ",\n  \"host\": {\"hardware_threads\": " << std::thread::hardware_concurrency()
      << "},\n  \"workloads\": {";
  bool first = true;
  for (const Entry& e : entries) {
    if (e.json.empty()) continue;
    out << (first ? "\n" : ",\n") << e.json;
    first = false;
  }
  out << "\n  },\n  \"net.socket_over_inproc\": {\"unit\": \"x\", \"value\": "
      << num(socket_over_inproc(entries)) << "}\n}\n";
  if (!out) std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
}

// ---- human-readable output -----------------------------------------------------

void print_result(const WorkloadResult& r, const RunOptions& o) {
  std::printf("\n== %s (seed %llu) ==\n", r.name.c_str(), static_cast<unsigned long long>(o.seed));
  std::printf("correct: %s   solves: %llu attempted, %llu failed   fail_ratio %.4g\n",
              r.correct() ? "yes" : "NO", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), fail_ratio(r));
  for (const std::string& e : r.errors) std::printf("  FAILED: %s\n", e.c_str());
  std::printf("gen_s %.4f s (input generation, not set-up)   serial_ref_s %.4f s\n", r.gen_s,
              summarize_samples(r.serial_s).median);
  for (const auto& [name, value] : r.checks) std::printf("check %s = %.12g\n", name.c_str(), value);
  std::printf("end-to-end (tracing off): median [q1, q3] over n\n");
  for (const auto& [m, s] : end_to_end(r)) {
    std::printf("  %-20s %12.6g %-8s [%.6g, %.6g]  n=%zu\n", m.name, s.median, m.unit, s.q1, s.q3,
                s.n);
  }
  if (!o.trace) return;
  std::printf("per-layer (traced solve; 0 = does not apply to this workload)\n");
  for (const Reported& m : reported_metrics(r, true)) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// ---- BENCHMARK.json ------------------------------------------------------------

json::Value load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

const json::Value& member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (m == nullptr) throw std::runtime_error(std::string("missing key '") + key + "'");
  return *m;
}

/// The smoke's contract check: BENCHMARK.json names exactly the workloads
/// and metrics this binary emits (reported_metrics emits every table entry
/// on every workload), with the same units.
std::vector<std::string> check_contract(const json::Value& bench) {
  std::vector<std::string> problems;
  std::set<std::string> listed;
  for (const json::Value& w : member(bench, "workloads").array) listed.insert(member(w, "name").str);
  if (listed != std::set<std::string>(std::begin(kWorkloads), std::end(kWorkloads))) {
    problems.push_back("BENCHMARK.json workloads differ from the benchmark's");
  }
  const auto check = [&](const char* key, const auto& table) {
    std::map<std::string, std::string> emitted;
    for (const MetricDef& m : table) emitted[m.name] = m.unit;
    std::map<std::string, std::string> named;
    for (const json::Value& m : member(bench, key).array) {
      named[member(m, "name").str] = member(m, "unit").str;
    }
    if (named != emitted) {
      problems.push_back(std::string(key) + " metrics or units differ from the emitted ones");
    }
  };
  check("end_to_end", kEndToEnd);
  check("per_layer", kPerLayer);
  return problems;
}

// ---- compare mode --------------------------------------------------------------

int compare(const std::string& parent_path, const std::string& change_path,
            const std::string& bench_path) {
  const json::Value bench = load_json(bench_path);
  const json::Value parent = load_json(parent_path);
  const json::Value change = load_json(change_path);
  std::printf("%-14s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "change",
              "delta", "bound", "verdict");
  int regressed = 0;
  for (const char* w : kWorkloads) {
    const json::Value* pw = member(parent, "workloads").find(w);
    const json::Value* cw = member(change, "workloads").find(w);
    if (pw == nullptr || cw == nullptr) continue;
    for (const json::Value& m : member(bench, "end_to_end").array) {
      const std::string& name = member(m, "name").str;
      const double bound = member(m, "bound").number;
      const bool lower = member(m, "better").str == "lower";
      const json::Value& p = member(member(*pw, "end_to_end"), name.c_str());
      const json::Value& c = member(member(*cw, "end_to_end"), name.c_str());
      const double pm = member(p, "median").number;
      const double cm = member(c, "median").number;
      const auto spread = [](const json::Value& s, double median) {
        return median != 0.0 ? (member(s, "q3").number - member(s, "q1").number) / std::abs(median)
                             : 0.0;
      };
      const double delta = pm != 0.0 ? (cm - pm) / std::abs(pm) : 0.0;
      const double worse = lower ? delta : -delta;
      const char* verdict = "ok";
      if (spread(p, pm) > bound || spread(c, cm) > bound) {
        verdict = "unresolved";
      } else if (worse > bound) {
        verdict = "regressed";
        ++regressed;
      }
      std::printf("%-14s %-18s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n", w, name.c_str(), pm, cm,
                  delta * 100.0, bound * 100.0, verdict);
    }
  }
  return regressed > 0 ? 1 : 0;
}

// ---- arguments -----------------------------------------------------------------

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long x = std::stoull(v, &used);
  if (used != v.size() || v.empty() || v[0] == '-') {
    throw std::invalid_argument("--" + key + " wants an unsigned integer, got '" + v + "'");
  }
  return x;
}

double parse_seconds(const std::string& v) {
  std::size_t used = 0;
  const double x = std::stod(v, &used);
  if (used != v.size() || !(x >= 0.0 && x <= 3600.0)) {
    throw std::invalid_argument("--seconds wants a number in [0, 3600], got '" + v + "'");
  }
  return x;
}

/// Run one workload in a forked child, so every workload starts from a
/// fresh process: memory an earlier workload freed but the allocator kept
/// would otherwise count toward a later one's peak_rss_mb. The child
/// prints its report and sends back "<ok> <solve median>", the result
/// line and its ledger object.
Entry run_isolated(const std::string& name, const RunOptions& o) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const WorkloadResult r = run_workload(name, o);
      print_result(r, o);
      const std::string msg = std::string(r.correct() && r.failed == 0 ? "1 " : "0 ") +
                              num(summarize_samples(r.solve_s).median) + "\n" +
                              result_line(r, o.trace) + "\n" + workload_json(r, o.trace);
      for (std::size_t done = 0; done < msg.size();) {
        const ssize_t n = ::write(fds[1], msg.data() + done, msg.size() - done);
        if (n <= 0) throw std::runtime_error("cannot report to the parent process");
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s: %s\n", name.c_str(), e.what());
      code = 2;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string msg;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;) msg.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);

  Entry e;
  e.name = name;
  const auto line1 = msg.find('\n');
  const auto line2 = line1 == std::string::npos ? line1 : msg.find('\n', line1 + 1);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || line2 == std::string::npos) {
    std::fprintf(stderr, "bench_e2e: workload %s did not finish\n", name.c_str());
    return e;
  }
  e.ok = msg[0] == '1';
  e.solve_median = std::stod(msg.substr(2, line1 - 2));
  e.result_line = msg.substr(line1 + 1, line2 - line1 - 1);
  e.json = msg.substr(line2 + 1);
  return e;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload=all|NAME] [--seed=N] [--seconds=S] [--trace=0|1]\n"
               "                 [--out=DIR] [--scratch=DIR]\n"
               "       bench_e2e --smoke --benchmark-json=FILE [--out=DIR] [--scratch=DIR]\n"
               "       bench_e2e --compare=PARENT.json,CHANGE.json [--benchmark-json=FILE]\n"
               "workloads: spmv_incore spmv_ooc lanczos_ci spmv_cluster\n");
  return 2;
}

int run(const Options& opts) {
  const std::set<std::string> known = {"workload", "seed",    "seconds", "trace",
                                       "out",      "scratch", "smoke",   "compare",
                                       "benchmark-json"};
  for (const auto& [key, value] : opts.raw()) {
    if (known.count(key) == 0) {
      std::fprintf(stderr, "bench_e2e: unknown option --%s\n", key.c_str());
      return usage();
    }
  }
  if (!opts.positional().empty()) return usage();
  const std::string bench_json = opts.get("benchmark-json", "BENCHMARK.json");

  if (opts.contains("compare")) {
    const std::string spec = opts.get("compare");
    const auto comma = spec.find(',');
    if (comma == std::string::npos) return usage();
    return compare(spec.substr(0, comma), spec.substr(comma + 1), bench_json);
  }

  RunOptions o;
  o.smoke = opts.get_bool("smoke", false);
  o.seed = parse_u64("seed", opts.get("seed", "1"));
  o.seconds = o.smoke ? 0.0 : parse_seconds(opts.get("seconds", "20"));
  o.min_reps = o.smoke ? 1 : o.min_reps;
  o.trace = o.smoke || opts.get("trace", "1") == "1";
  o.out = opts.get("out", o.out);
  o.scratch = opts.get("scratch", o.scratch);
  const std::string workload = o.smoke ? "all" : opts.get("workload", "all");
  std::vector<std::string> names;
  if (workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) !=
             std::end(kWorkloads)) {
    names.push_back(workload);
  } else {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", workload.c_str());
    return usage();
  }

  std::filesystem::create_directories(o.out);
  std::vector<Entry> entries;
  for (const std::string& name : names) entries.push_back(run_isolated(name, o));
  const std::string ledger = o.out + "/bench_e2e.json";
  write_ledger(ledger, o, entries);
  if (const double gap = socket_over_inproc(entries); gap > 0.0) {
    std::printf("\nnet.socket_over_inproc %.6g x (spmv_cluster / spmv_incore solve_s)\n", gap);
  }
  std::printf("\nwrote %s\n", ledger.c_str());

  bool ok = std::all_of(entries.begin(), entries.end(), [](const Entry& e) { return e.ok; });
  if (o.smoke) {
    for (const std::string& p : check_contract(load_json(bench_json))) {
      std::printf("smoke FAILED: %s\n", p.c_str());
      ok = false;
    }
    std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  } else if (entries.size() == 1) {
    if (entries.front().result_line.empty()) return 2;  // no result to report
    std::printf("%s\n", entries.front().result_line.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> set_vars;
  for (const char* var : kPolicyEnv) {
    if (std::getenv(var) != nullptr) set_vars.emplace_back(var);
  }
  if (!set_vars.empty()) {
    std::string list;
    for (const std::string& v : set_vars) list += " " + v;
    std::fprintf(stderr,
                 "bench_e2e: refusing to run with%s set: the library would read it and change "
                 "what is measured; unset it\n",
                 list.c_str());
    return 2;
  }
  Log::set_level(LogLevel::Warn);
  try {
    return run(Options::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
