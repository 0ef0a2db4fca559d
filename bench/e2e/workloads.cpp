// The four workloads. Each makes its input from the seed, sets the system
// up the way a user would, then runs one untimed warm-up solve, timed
// solves until the time budget is spent, and — when tracing — one more
// solve with the trace session collecting in memory.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "ci/hamiltonian.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "e2e.hpp"
#include "net/launch.hpp"
#include "net/socket_transport.hpp"
#include "net/spmv_job.hpp"
#include "obs/trace.hpp"
#include "sched/engine.hpp"
#include "solver/dist_vector.hpp"
#include "solver/krylov.hpp"
#include "spmv/generator.hpp"

namespace dooc::e2e {

namespace {

namespace fs = std::filesystem;

constexpr int kNodes = 4;  // one compute slot each: 4 compute threads
constexpr int kGridK = 4;
// In-process set-up is sampled at least kSetups times and for at least
// kSetupShare of the run's time budget; the median is reported.
constexpr int kSetups = 5;
constexpr double kSetupShare = 0.1;
// After each timed solve the serial reference runs for this share of the
// solve's wall time.
constexpr double kSerialShare = 0.1;
constexpr std::uint64_t kMiB = 1ull << 20;
/// DESIGN.md's calibrated per-node GPFS client read rate.
constexpr double kOocReadBw = 1.45e9;

/// Input sizes. The full shape is the benchmark; the smoke shape only
/// exercises every code path quickly.
struct Shape {
  std::uint64_t n;        ///< uniform-gap matrix dimension
  std::uint64_t row_nnz;  ///< mean non-zeros per row
  int incore_iterations;
  int ooc_iterations;
  std::uint64_t ooc_budget;  ///< per node, against a matrix share of ~bytes/4
  ci::NucleusConfig nucleus;
  int lanczos_steps;
  std::uint64_t lanczos_budget;
  /// Lowest eigenvalue of the nucleus' Hamiltonian (converged Lanczos; the
  /// step count above converges it from any start vector).
  double lowest_eigenvalue;
};

const Shape kFull{262144, 64, 50, 20, 40 * kMiB, {2, 2, 6, 0}, 100, 4 * kMiB, 5.01572750202};
const Shape kSmoke{4096, 16, 3, 3, 64 << 10, {2, 2, 2, 0}, 20, 64 << 10, 5.91433845565};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 rng(seed ^ stream);
  return rng.next();
}

double cpu_seconds_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// User+sys CPU seconds of another process (/proc/<pid>/stat fields 14-15).
double cpu_seconds_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 1));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a process in MB; `pid` may be "self".
double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 * 1e-6;
  }
  return 0.0;
}

/// Resident size of the benchmark's own copy of a matrix, which stays in
/// memory for the serial probe and is not the system's memory.
double matrix_mb(const spmv::CsrMatrix& a) {
  return static_cast<double>(a.row_ptr.size() * sizeof(std::uint64_t) +
                             a.col_idx.size() * sizeof(std::uint32_t) +
                             a.values.size() * sizeof(double)) * 1e-6;
}

/// Restart this process's VmHWM at its current RSS, so the peak measures
/// the solves rather than input generation. False where unsupported.
bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double relative_inf_error(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return INFINITY;
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return scale > 0.0 ? err / scale : err;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A directory removed with everything in it when this goes away.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The same generator and scaling net::SpmvJob uses (values x0.05 keep the
/// iterates normal across 50 iterations).
spmv::CsrMatrix uniform_gap_matrix(const Shape& shape, std::uint64_t seed) {
  const double d = spmv::choose_gap_parameter(shape.n, shape.n, shape.n * shape.row_nnz);
  spmv::CsrMatrix a = spmv::generate_uniform_gap(shape.n, shape.n, d, seed);
  for (double& v : a.values) v *= 0.05;
  return a;
}

std::vector<double> vector_of(std::uint64_t n, const std::function<double(std::uint64_t)>& value) {
  std::vector<double> x(n);
  for (std::uint64_t i = 0; i < n; ++i) x[i] = value(i);
  return x;
}

/// x_iterations = A^iterations x0 by serial CsrMatrix::multiply.
std::vector<double> reference_iterate(const spmv::CsrMatrix& a, std::vector<double> x,
                                      int iterations) {
  std::vector<double> y(a.rows);
  for (int i = 0; i < iterations; ++i) {
    a.multiply(x, y);
    std::swap(x, y);
  }
  return x;
}

/// The same-run serial reference: single-thread CsrMatrix::multiply of the
/// global matrix. It runs right after each timed solve, so every solve is
/// paired with a reference taken in the same machine state (on a shared
/// host the speed of both wanders over tens of seconds).
class SerialProbe {
 public:
  SerialProbe(const spmv::CsrMatrix& a, std::vector<double> x)
      : a_(a), x_(std::move(x)), y_(a.rows) {}

  /// Median seconds per multiply, over multiplies run for at least
  /// `budget_s` (at least one). x stays fixed, so values never drift
  /// toward denormals however many multiplies run.
  double seconds_per_multiply(double budget_s) {
    std::vector<double> t;
    Stopwatch total;
    do {
      Stopwatch sw;
      a_.multiply(x_, y_);
      t.push_back(sw.seconds());
    } while (total.seconds() < budget_s);
    return median_of(t);
  }

 private:
  const spmv::CsrMatrix& a_;
  std::vector<double> x_;
  std::vector<double> y_;
};

enum class Phase { Warmup, Timed, Traced };

/// Warm-up, timed solves until `seconds` have passed (at least min_reps),
/// then the traced solve. A solve that throws or fails a check counts as
/// failed and ends the workload.
void run_solves(const RunOptions& o, WorkloadResult& r, const std::function<void(Phase)>& solve,
                const std::function<void()>& after_timed) {
  const auto attempt = [&](Phase phase) {
    ++r.attempted;
    const std::size_t errors = r.errors.size();
    try {
      solve(phase);
    } catch (const std::exception& e) {
      r.errors.push_back(std::string("solve threw: ") + e.what());
    }
    if (r.errors.size() == errors) return true;
    ++r.failed;
    return false;
  };
  if (!attempt(Phase::Warmup)) return;
  Stopwatch budget;
  for (int reps = 0; reps < o.min_reps || budget.seconds() < o.seconds; ++reps) {
    if (!attempt(Phase::Timed)) return;
  }
  after_timed();
  if (o.trace) attempt(Phase::Traced);
}

/// Collect a trace around `fn`, write it to `path` (dooc_tracecat reads it)
/// and parse it back.
std::vector<obs::ParsedEvent> collect_trace(const std::string& path, std::uint64_t& dropped,
                                            const std::function<void()>& fn) {
  obs::TraceSession& session = obs::TraceSession::instance();
  const std::uint64_t dropped_before = session.dropped();
  session.start(path);
  try {
    fn();
  } catch (...) {
    (void)session.stop();
    throw;
  }
  dropped = session.dropped() - dropped_before;
  (void)session.stop();
  return obs::load_chrome_trace(path);
}

storage::StorageStats stats_delta(const storage::StorageStats& after,
                                  const storage::StorageStats& before) {
  storage::StorageStats d;
  d.disk_reads = after.disk_reads - before.disk_reads;
  d.disk_read_bytes = after.disk_read_bytes - before.disk_read_bytes;
  d.disk_write_bytes = after.disk_write_bytes - before.disk_write_bytes;
  d.evictions = after.evictions - before.evictions;
  d.remote_fetch_bytes = after.remote_fetch_bytes - before.remote_fetch_bytes;
  d.decoded_bytes = after.decoded_bytes - before.decoded_bytes;
  d.disk_read_seconds = after.disk_read_seconds - before.disk_read_seconds;
  d.decode_seconds = after.decode_seconds - before.decode_seconds;
  return d;
}

// ---- in-process workloads ---------------------------------------------------

sched::EngineConfig engine_config() {
  sched::EngineConfig c;
  c.compute_slots_per_node = 1;
  c.split_threads_per_node = 1;
  c.record_trace = false;  // the obs trace of the traced solve is the record
  return c;
}

/// Every policy set here, so nothing is left to the environment.
storage::StorageConfig storage_config(std::uint64_t budget, double read_bw) {
  storage::StorageConfig c;
  c.memory_budget = budget;
  c.throttle_read_bw = read_bw;
  c.eviction = storage::EvictionPolicy::Lru;
  c.codec = spmv::codec::CodecConfig{};
  c.replication = storage::ReplicationConfig{};
  c.fault_plan = nullptr;
  return c;
}

/// A storage cluster with the matrix deployed and an engine over it.
struct Deployment {
  explicit Deployment(std::string path) : dir(std::move(path)) {}

  ScratchDir dir;
  std::unique_ptr<storage::StorageCluster> cluster;
  spmv::DeployedMatrix matrix;
  std::unique_ptr<sched::Engine> engine;  // declared last: destroyed first
};

/// Set up into fresh clusters, keeping the last; each sample is
/// StorageCluster + deploy_matrix (+ x0) + Engine.
std::unique_ptr<Deployment> deploy_sampled(const RunOptions& o, const std::string& name,
                                           storage::StorageConfig cfg, const spmv::CsrMatrix& a,
                                           const std::string& prefix, bool with_x0,
                                           WorkloadResult& r) {
  std::unique_ptr<Deployment> d;
  Stopwatch spent;
  for (int i = 0; i < kSetups || spent.seconds() < kSetupShare * o.seconds; ++i) {
    d.reset();
    d = std::make_unique<Deployment>(o.scratch + "/" + name);
    cfg.scratch_root = d->dir.path();
    Stopwatch sw;
    d->cluster = std::make_unique<storage::StorageCluster>(kNodes, cfg);
    const spmv::BlockOwner owner = spmv::column_strip_owner(kNodes);
    d->matrix = spmv::deploy_matrix(*d->cluster, a, kGridK, owner, prefix);
    if (with_x0) {
      spmv::create_distributed_vector(*d->cluster, d->matrix.grid, owner, "x", 0,
                                      net::spmv_x0_value);
    }
    d->engine = std::make_unique<sched::Engine>(*d->cluster, engine_config());
    r.setup_s.push_back(sw.seconds());
  }
  return d;
}

/// Computed bytes one matvec's multiply tasks move: every block once, its
/// x part read and its partial written.
double matvec_bytes(const spmv::DeployedMatrix& m) {
  return static_cast<double>(m.total_bytes()) +
         2.0 * sizeof(double) * static_cast<double>(m.grid.k()) * static_cast<double>(m.grid.n());
}

void echo_common(WorkloadResult& r, const storage::StorageConfig& cfg, const sched::EngineConfig& e,
                 const spmv::DeployedMatrix& m) {
  r.config.emplace_back("nodes", std::to_string(kNodes));
  r.config.emplace_back("grid_k", std::to_string(m.grid.k()));
  r.config.emplace_back("owner", "column_strip");
  r.config.emplace_back("n", std::to_string(m.grid.n()));
  r.config.emplace_back("nnz", std::to_string(m.total_nnz()));
  r.config.emplace_back("matrix_mb", std::to_string(static_cast<double>(m.total_bytes()) * 1e-6));
  r.config.emplace_back("memory_budget_bytes", std::to_string(cfg.memory_budget));
  r.config.emplace_back("throttle_read_bw", std::to_string(cfg.throttle_read_bw));
  r.config.emplace_back("io_workers", std::to_string(cfg.io_workers));
  r.config.emplace_back("eviction", "lru");
  r.config.emplace_back("codec", spmv::codec::mode_name(cfg.codec->mode));
  r.config.emplace_back("replication", cfg.replication->enabled ? "on" : "off");
  r.config.emplace_back("fault_plan", "none");
  r.config.emplace_back("compute_slots_per_node", std::to_string(e.compute_slots_per_node));
  r.config.emplace_back("split_threads_per_node", std::to_string(e.split_threads_per_node));
  r.config.emplace_back("prefetch_window", std::to_string(e.prefetch_window));
}

struct SolveSample {
  double wall = 0.0;
  double cpu = 0.0;
  storage::StorageStats io;  ///< delta over the timed call
};

void record(WorkloadResult& r, Phase phase, const SolveSample& s, SerialProbe& serial,
            int matvecs) {
  if (phase != Phase::Timed) return;
  r.solve_s.push_back(s.wall);
  r.cpu_s.push_back(s.cpu);
  r.serial_s.push_back(serial.seconds_per_multiply(kSerialShare * s.wall) * matvecs);
}

/// 2 * nnz * matvecs over the median serial time of those matvecs.
double serial_gflops(const WorkloadResult& r, const spmv::CsrMatrix& a, int matvecs) {
  return 2.0 * static_cast<double>(a.nnz()) * matvecs / median_of(r.serial_s) * 1e-9;
}

/// A cat "bench" span around a public call, while the trace session is on.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) {
    if (obs::trace_enabled()) span_.emplace("bench", name, -1);
  }

 private:
  std::optional<obs::Span> span_;
};

/// Time one public solve call: wall, process CPU and the storage delta.
template <typename Fn>
SolveSample timed_call(storage::StorageCluster& cluster, const char* span_name, Fn&& fn) {
  SolveSample s;
  const storage::StorageStats before = cluster.total_stats();
  const double cpu0 = cpu_seconds_self();
  Stopwatch sw;
  {
    const BenchSpan span(span_name);
    fn();
  }
  s.wall = sw.seconds();
  s.cpu = cpu_seconds_self() - cpu0;
  s.io = stats_delta(cluster.total_stats(), before);
  return s;
}

void finish_traced(WorkloadResult& r, TracedSolve& traced, const SolveSample& s, int matvecs,
                   const spmv::DeployedMatrix& m) {
  traced.wall_s = s.wall;
  traced.storage = s.io;
  traced.matvecs = matvecs;
  traced.matvec_flops = 2.0 * static_cast<double>(m.total_nnz());
  traced.matvec_bytes = matvec_bytes(m);
  traced.compute_slots = kNodes * engine_config().compute_slots_per_node;
  derive_inproc_layers(traced, median_of(r.solve_s), r.layers);
}

WorkloadResult run_spmv_inproc(const std::string& name, const Shape& shape, const RunOptions& o,
                               int iterations, std::uint64_t budget, double read_bw) {
  WorkloadResult r;
  r.name = name;
  Stopwatch gen;
  const spmv::CsrMatrix a = uniform_gap_matrix(shape, derive_seed(o.seed, 0x6A7));
  r.gen_s = gen.seconds();
  const std::vector<double> x0 = vector_of(a.rows, net::spmv_x0_value);
  const std::vector<double> expect = reference_iterate(a, x0, iterations);
  SerialProbe serial(a, x0);

  const storage::StorageConfig cfg = storage_config(budget, read_bw);
  auto d = deploy_sampled(o, name, cfg, a, "A", true, r);
  r.config.emplace_back("peak_rss_reset", reset_peak_rss() ? "yes" : "no");
  echo_common(r, cfg, d->engine->config(), d->matrix);
  r.config.emplace_back("mode", "interleaved");
  r.config.emplace_back("inter_iteration_sync", "on");
  r.config.emplace_back("iterations", std::to_string(iterations));

  std::vector<double> first;
  double worst_err = 0.0;
  const auto solve = [&](Phase phase) {
    solver::IteratedSpmvConfig scfg;
    scfg.iterations = iterations;
    scfg.mode = solver::ReductionMode::Interleaved;
    scfg.inter_iteration_sync = true;
    solver::IteratedSpmv driver(*d->cluster, d->matrix, scfg);
    sched::Report report;
    const auto call = [&] {
      return timed_call(*d->cluster, "IteratedSpmv::run", [&] { report = driver.run(*d->engine); });
    };
    SolveSample s;
    TracedSolve traced;
    if (phase == Phase::Traced) {
      traced.events = collect_trace(o.out + "/" + name + ".trace.json", traced.dropped_events,
                                    [&] { s = call(); });
    } else {
      s = call();
    }
    if (!report.faults.ok()) r.errors.push_back("engine reported failed tasks");
    std::vector<double> x = driver.gather_result();
    driver.cleanup_intermediates();
    for (int u = 0; u < d->matrix.grid.k(); ++u) {
      d->cluster->node(0).delete_array(spmv::BlockGrid::vector_name("x", iterations, u));
    }
    if (first.empty()) first = x;
    if (!bitwise_equal(x, first)) r.errors.push_back("iterate differs bitwise from the first solve");
    const double err = relative_inf_error(x, expect);
    worst_err = std::max(worst_err, err);
    if (!(err <= 1e-10)) {
      r.errors.push_back("iterate is " + std::to_string(err) + " (relative) from the serial reference");
    }
    record(r, phase, s, serial, iterations);
    if (phase == Phase::Traced) finish_traced(r, traced, s, iterations, d->matrix);
  };
  run_solves(o, r, solve, [&] { r.rss_mb.push_back(peak_rss_mb("self") - matrix_mb(a)); });
  r.layers["spmv.serial_gflops"] = serial_gflops(r, a, iterations);
  r.checks.emplace_back("max_rel_error_vs_serial", worst_err);
  return r;
}

WorkloadResult run_lanczos(const Shape& shape, const RunOptions& o) {
  WorkloadResult r;
  r.name = "lanczos_ci";
  Stopwatch gen;
  const spmv::CsrMatrix h = ci::build_hamiltonian(shape.nucleus);
  r.gen_s = gen.seconds();
  const int steps = shape.lanczos_steps;
  SerialProbe serial(h, std::vector<double>(h.rows, 1.0));

  const storage::StorageConfig cfg = storage_config(shape.lanczos_budget, 0.0);
  auto d = deploy_sampled(o, r.name, cfg, h, "H", false, r);
  r.config.emplace_back("peak_rss_reset", reset_peak_rss() ? "yes" : "no");
  echo_common(r, cfg, d->engine->config(), d->matrix);
  solver::LanczosOptions lopts;
  lopts.max_iterations = steps;
  lopts.num_eigenvalues = 4;
  lopts.tolerance = 0.0;  // fixes the step count
  lopts.full_reorthogonalization = true;
  lopts.flush_basis = true;
  lopts.seed = derive_seed(o.seed, 0x1A4C);
  r.config.emplace_back("nucleus", std::to_string(shape.nucleus.protons) + "p" +
                                        std::to_string(shape.nucleus.neutrons) + "n Nmax=" +
                                        std::to_string(shape.nucleus.nmax));
  r.config.emplace_back("steps", std::to_string(steps));
  r.config.emplace_back("eigenvalues", std::to_string(lopts.num_eigenvalues));
  r.config.emplace_back("full_reorthogonalization", "on");
  r.config.emplace_back("flush_basis", "on");

  std::vector<double> first;
  const auto solve = [&](Phase phase) {
    solver::Lanczos lanczos(*d->cluster, d->matrix, *d->engine, lopts);
    solver::LanczosResult result;
    const auto call = [&] {
      return timed_call(*d->cluster, "Lanczos::run", [&] { result = lanczos.run(); });
    };
    SolveSample s;
    TracedSolve traced;
    if (phase == Phase::Traced) {
      traced.events = collect_trace(o.out + "/lanczos_ci.trace.json", traced.dropped_events,
                                    [&] { s = call(); });
    } else {
      s = call();
    }
    // The basis stays in storage for compute_eigenvectors(); drop it so
    // every solve starts from the same state.
    solver::DistVectorOps vecs(*d->cluster, d->matrix.grid,
                               [&m = d->matrix](int u, int v) { return m.owner_of(u, v); });
    for (int j = 0; j <= result.iterations; ++j) {
      if (vecs.exists(lopts.base, j)) vecs.remove(lopts.base, j);
    }
    if (result.iterations != steps) {
      r.errors.push_back("Lanczos stopped after " + std::to_string(result.iterations) + " steps");
    }
    const double lowest = result.eigenvalues.empty() ? NAN : result.eigenvalues[0];
    if (first.empty()) {
      first = result.eigenvalues;
      r.checks.emplace_back("lowest_ritz", lowest);
    }
    if (!bitwise_equal(result.eigenvalues, first)) {
      r.errors.push_back("Ritz values differ bitwise from the first solve");
    }
    const double rel = std::abs(lowest - shape.lowest_eigenvalue) / shape.lowest_eigenvalue;
    if (!(rel <= 1e-9)) {
      r.errors.push_back("lowest Ritz value " + std::to_string(lowest) +
                         " is off the recorded eigenvalue by " + std::to_string(rel));
    }
    record(r, phase, s, serial, steps);
    if (phase == Phase::Traced) finish_traced(r, traced, s, steps, d->matrix);
  };
  run_solves(o, r, solve, [&] { r.rss_mb.push_back(peak_rss_mb("self") - matrix_mb(h)); });
  r.layers["spmv.serial_gflops"] = serial_gflops(r, h, steps);
  return r;
}

// ---- the socket cluster -----------------------------------------------------

struct ClusterRep {
  std::vector<double> x;
  double spawn_s = 0.0;
  double deploy_s = 0.0;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double cpu_s = 0.0;
  double gather_s = 0.0;
  double rss_mb = 0.0;
  double block_fetch_gbps = 0.0;
  net::RunResult run;
  std::uint64_t fetch_frames = 0;
  std::uint64_t fetch_bytes = 0;
  std::uint64_t durable_fallbacks = 0;
  double fetch_p50_s = 0.0;
  double fetch_p99_s = 0.0;
  std::uint64_t coord_bytes = 0;
};

double cluster_cpu_seconds(const net::ClusterLauncher& launcher) {
  double cpu = cpu_seconds_self();
  for (net::NodeId i = 0; i < launcher.num_nodes(); ++i) cpu += cpu_seconds_of(launcher.pid(i));
  return cpu;
}

/// One cluster lifecycle: spawn, connect, deploy (the set-up sample), run,
/// gather, read the counters, shut down.
ClusterRep cluster_rep(const net::SpmvJob& job, const std::string& dir,
                       const std::string& trace_dir, bool probe) {
  ClusterRep rep;
  ScratchDir scratch(dir);
  fs::create_directories(dir + "/durable");
  net::LaunchConfig lcfg;
  lcfg.manifest = net::Manifest::local_unix(dir, kNodes);
  lcfg.manifest_path = dir + "/manifest.txt";
  lcfg.durable_dir = dir + "/durable";
  lcfg.doocd_path = DOOC_E2E_DOOCD;
  lcfg.trace_dir = trace_dir;
  lcfg.codec_spec = "off";
  lcfg.telemetry_spec = "off";
  lcfg.exec_threads = 1;
  net::ClusterLauncher launcher(lcfg);

  Stopwatch setup;
  std::unique_ptr<net::SocketTransport> transport;
  {
    const BenchSpan s("ClusterLauncher::spawn_all");
    launcher.spawn_all();
    net::SocketTransportConfig tcfg;
    tcfg.self = net::kCoordinatorId;
    transport = net::SocketTransport::client(tcfg);
    for (net::NodeId i = 0; i < kNodes; ++i) {
      if (!transport->connect_peer(i, lcfg.manifest.nodes[static_cast<std::size_t>(i)])) {
        throw Error("doocd node " + std::to_string(i) + " did not come up");
      }
    }
  }
  rep.spawn_s = setup.seconds();
  net::CoordinatorConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.durable_dir = lcfg.durable_dir;
  ccfg.telemetry = obs::telemetry::TelemetryConfig{};
  net::Coordinator coord(*transport, ccfg);
  {
    const BenchSpan s("Coordinator::put_block");
    Stopwatch sw;
    job.deploy(coord);
    rep.deploy_s = sw.seconds();
  }
  rep.setup_s = setup.seconds();

  const auto driver = job.build_graph();
  const net::TransportCounters tc0 = transport->counters();
  const double cpu0 = cluster_cpu_seconds(launcher);
  {
    const BenchSpan s("Coordinator::run");
    Stopwatch sw;
    rep.run = coord.run(driver->graph());
    rep.solve_s = sw.seconds();
  }
  rep.cpu_s = cluster_cpu_seconds(launcher) - cpu0;
  const net::TransportCounters tc1 = transport->counters();
  rep.coord_bytes = (tc1.bytes_sent - tc0.bytes_sent) + (tc1.bytes_received - tc0.bytes_received);
  if (!rep.run.ok) throw Error("Coordinator::run failed: " + rep.run.error);
  {
    const BenchSpan s("Coordinator::fetch_block (gather)");
    Stopwatch sw;
    rep.x = job.gather(coord);
    rep.gather_s = sw.seconds();
  }
  if (probe) {
    const BenchSpan s("Coordinator::fetch_block (matrix blocks)");
    const spmv::DeployedMatrix& m = job.matrix();
    std::uint64_t bytes = 0;
    Stopwatch sw;
    for (int u = 0; u < m.grid.k(); ++u) {
      for (int v = 0; v < m.grid.k(); ++v) bytes += coord.fetch_block(m.name_of(u, v)).size();
    }
    rep.block_fetch_gbps = static_cast<double>(bytes) / sw.seconds() * 1e-9;
  }
  for (const auto& [node, report] : coord.collect_reports()) {
    rep.fetch_frames += report.fetches_issued;
    rep.fetch_bytes += report.fetch_bytes_in;
    rep.durable_fallbacks += report.durable_fallbacks;
    rep.fetch_p50_s = std::max(rep.fetch_p50_s, report.fetch_p50_s);
    rep.fetch_p99_s = std::max(rep.fetch_p99_s, report.fetch_p99_s);
  }
  rep.rss_mb = peak_rss_mb("self");
  for (net::NodeId i = 0; i < kNodes; ++i) rep.rss_mb += peak_rss_mb(std::to_string(launcher.pid(i)));

  coord.shutdown_cluster();
  transport->close();
  if (const int bad = launcher.wait_all(5000); bad > 0) {
    throw Error(std::to_string(bad) + " doocd process(es) exited abnormally");
  }
  return rep;
}

WorkloadResult run_cluster(const Shape& shape, const RunOptions& o) {
  WorkloadResult r;
  r.name = "spmv_cluster";
  net::SpmvJobConfig jcfg;
  jcfg.n = shape.n;
  jcfg.grid_k = kGridK;
  jcfg.iterations = shape.incore_iterations;
  jcfg.num_nodes = kNodes;
  jcfg.gap_d = spmv::choose_gap_parameter(shape.n, shape.n, shape.n * shape.row_nnz);
  jcfg.seed = derive_seed(o.seed, 0x6A7);
  jcfg.inter_iteration_sync = true;
  jcfg.mode = solver::ReductionMode::Interleaved;

  Stopwatch gen;
  const net::SpmvJob job(jcfg);
  const spmv::CsrMatrix a = uniform_gap_matrix(shape, jcfg.seed);  // the serial reference's copy
  r.gen_s = gen.seconds();
  const std::vector<double> x0 = vector_of(a.rows, net::spmv_x0_value);
  const std::vector<double> serial_iterate = reference_iterate(a, x0, jcfg.iterations);
  SerialProbe serial(a, x0);
  std::vector<double> expect;
  {
    ScratchDir ref(o.scratch + "/spmv_cluster_ref");
    expect = job.reference(ref.path());
  }
  r.config.emplace_back("peak_rss_reset", reset_peak_rss() ? "yes" : "no");
  r.config.emplace_back("nodes", std::to_string(kNodes));
  r.config.emplace_back("transport", "unix");
  r.config.emplace_back("exec_threads", "1");
  r.config.emplace_back("grid_k", std::to_string(kGridK));
  r.config.emplace_back("owner", "column_strip");
  r.config.emplace_back("n", std::to_string(jcfg.n));
  r.config.emplace_back("nnz", std::to_string(job.matrix().total_nnz()));
  r.config.emplace_back("iterations", std::to_string(jcfg.iterations));
  r.config.emplace_back("mode", "interleaved");
  r.config.emplace_back("inter_iteration_sync", "on");
  r.config.emplace_back("codec", "off");
  r.config.emplace_back("telemetry", "off");

  std::vector<double> rss;
  double worst_err = 0.0;
  const auto solve = [&](Phase phase) {
    const bool traced = phase == Phase::Traced;
    const std::string dir = o.scratch + "/spmv_cluster";
    const std::string node_traces = o.out + "/spmv_cluster.nodes";
    ClusterRep rep;
    std::vector<obs::ParsedEvent> bench_events;
    std::uint64_t dropped = 0;
    if (traced) {
      fs::remove_all(node_traces);
      fs::create_directories(node_traces);
      bench_events = collect_trace(o.out + "/spmv_cluster.trace.json", dropped,
                                   [&] { rep = cluster_rep(job, dir, node_traces, true); });
    } else {
      rep = cluster_rep(job, dir, "", false);
    }
    if (!bitwise_equal(rep.x, expect)) {
      r.errors.push_back("iterate differs bitwise from SpmvJob::reference()");
    }
    const double err = relative_inf_error(rep.x, serial_iterate);
    worst_err = std::max(worst_err, err);
    if (!(err <= 1e-10)) {
      r.errors.push_back("iterate is " + std::to_string(err) + " (relative) from the serial reference");
    }
    if (!traced) r.setup_s.push_back(rep.setup_s);
    if (phase == Phase::Timed) {
      r.solve_s.push_back(rep.solve_s);
      r.cpu_s.push_back(rep.cpu_s);
      r.serial_s.push_back(serial.seconds_per_multiply(kSerialShare * rep.solve_s) *
                           jcfg.iterations);
      rss.push_back(rep.rss_mb - matrix_mb(a));
    }
    if (!traced) return;
    std::uint64_t events = bench_events.size();
    for (int i = 0; i < kNodes; ++i) {
      events += obs::load_chrome_trace(node_traces + "/node" + std::to_string(i) + ".json").size();
    }
    auto& L = r.layers;
    L["sched.tasks"] = static_cast<double>(rep.run.tasks_executed);
    L["sched.jobs"] = 1;
    L["solver.steps"] = jcfg.iterations;
    L["solver.matvec_s"] = rep.solve_s;
    L["net.spawn_s"] = rep.spawn_s;
    L["net.deploy_s"] = rep.deploy_s;
    L["net.gather_s"] = rep.gather_s;
    L["net.block_fetch_gbps"] = rep.block_fetch_gbps;
    L["net.fetch_frames"] = static_cast<double>(rep.fetch_frames);
    L["net.fetch_mb"] = static_cast<double>(rep.fetch_bytes) * 1e-6;
    L["net.fetch_p50_us"] = rep.fetch_p50_s * 1e6;
    L["net.fetch_p99_us"] = rep.fetch_p99_s * 1e6;
    L["net.durable_fallbacks"] = static_cast<double>(rep.durable_fallbacks);
    L["net.coord_mb"] = static_cast<double>(rep.coord_bytes) * 1e-6;
    L["obs.trace_overhead_frac"] = rep.solve_s / median_of(r.solve_s) - 1.0;
    L["obs.trace_events"] = static_cast<double>(events);
    L["obs.dropped_events"] = static_cast<double>(dropped);
  };
  run_solves(o, r, solve, [&] { r.rss_mb.push_back(median_of(rss)); });
  r.layers["spmv.serial_gflops"] = serial_gflops(r, a, jcfg.iterations);
  r.checks.emplace_back("max_rel_error_vs_serial", worst_err);
  return r;
}

}  // namespace

WorkloadResult run_workload(const std::string& name, const RunOptions& o) {
  const Shape& shape = o.smoke ? kSmoke : kFull;
  fs::create_directories(o.scratch);
  if (name == "spmv_incore") {
    return run_spmv_inproc(name, shape, o, shape.incore_iterations, 1024 * kMiB, 0.0);
  }
  if (name == "spmv_ooc") {
    return run_spmv_inproc(name, shape, o, shape.ooc_iterations, shape.ooc_budget, kOocReadBw);
  }
  if (name == "lanczos_ci") return run_lanczos(shape, o);
  if (name == "spmv_cluster") return run_cluster(shape, o);
  throw InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace dooc::e2e
