// Task-lifecycle tests for the completion-driven execution core shared by
// sched::Engine and the DES: ExecutorCore state transitions, the prefetch
// window, refresh promotion/demotion, the engine's event-driven worker
// path — including shutdown with storage requests still in flight — the
// remote executor's recovery (fault after dispatch, node-loss reassign)
// and the release of transient arrays after their last reader.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>

#include "obs/metrics.hpp"
#include "sched/engine.hpp"
#include "sched/executor_core.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc::sched {
namespace {

using storage::Interval;

Task make_task(std::string name, std::vector<Interval> in, std::vector<Interval> out) {
  Task t;
  t.name = std::move(name);
  t.kind = "test";
  t.inputs = std::move(in);
  t.outputs = std::move(out);
  return t;
}

/// Residency scripted per array name; tests flip entries between calls.
class FakeProbe final : public ResidencyProbe {
 public:
  std::set<std::string> resident;

  std::uint64_t resident_input_bytes(int, const Task& task) override {
    std::uint64_t bytes = 0;
    for (const auto& in : task.inputs) {
      if (resident.count(in.array) != 0) bytes += in.length;
    }
    return bytes;
  }
  bool inputs_resident(int, const Task& task) override {
    for (const auto& in : task.inputs) {
      if (resident.count(in.array) == 0) return false;
    }
    return true;
  }
};

TEST(ExecutorCore, LifecycleWalksAssignedPendingRunnableDone) {
  TaskGraph g;
  const TaskId a = g.add(make_task("a", {}, {{"x", 0, 8}}));
  const TaskId b = g.add(make_task("b", {{"x", 0, 8}}, {{"y", 0, 8}}));
  g.build();
  FakeProbe probe;
  ExecutorCore core(g, {0, 0}, 1, {}, &probe);

  EXPECT_EQ(core.state(a), TaskState::Assigned);
  EXPECT_EQ(core.state(b), TaskState::Waiting);
  EXPECT_EQ(core.backlog(0), 1u);

  // `a` has no inputs: resident class, straight to Runnable on stage(0).
  const StageDecision d = core.next_to_stage(0, StageSelect::Resident);
  ASSERT_EQ(d.task, a);
  core.stage(a, 0);
  EXPECT_EQ(core.state(a), TaskState::Runnable);

  ASSERT_EQ(core.take_runnable(0), a);
  EXPECT_EQ(core.state(a), TaskState::Running);
  std::vector<std::pair<int, TaskId>> newly;
  core.finish(a, newly);
  EXPECT_EQ(core.state(a), TaskState::Done);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], (std::pair<int, TaskId>{0, b}));

  // `b` waits for one input-arrival event per input.
  const StageDecision db = core.next_to_stage(0, StageSelect::Missing);
  ASSERT_EQ(db.task, b);
  core.stage(b, 1);
  EXPECT_EQ(core.state(b), TaskState::InputsPending);
  EXPECT_TRUE(core.note_input(b));
  EXPECT_EQ(core.state(b), TaskState::Runnable);
  ASSERT_EQ(core.take_runnable(0), b);
  core.finish(b, newly);
  EXPECT_TRUE(core.all_done());
}

TEST(ExecutorCore, MissingStagingIsBoundedByTheWindow) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add(make_task("t" + std::to_string(i), {{"in" + std::to_string(i), 0, 8}},
                    {{"out" + std::to_string(i), 0, 8}}));
  }
  // Satisfy the reads: external producers pinned elsewhere don't exist in
  // this synthetic graph, so register writers and finish them first.
  std::vector<TaskId> writers;
  for (int i = 0; i < 4; ++i) {
    writers.push_back(g.add(make_task("w" + std::to_string(i), {}, {{"in" + std::to_string(i), 0, 8}})));
  }
  g.build();
  FakeProbe probe;
  CoreConfig cfg;
  cfg.prefetch_window = 2;
  cfg.demand_slots = 0;
  ExecutorCore core(g, std::vector<int>(g.size(), 0), 1, cfg, &probe);

  std::vector<std::pair<int, TaskId>> newly;
  for (const TaskId w : writers) {
    const StageDecision d = core.next_to_stage(0, StageSelect::Resident);
    ASSERT_NE(d.task, kInvalidTask);
    core.stage(d.task, 0);
    ASSERT_EQ(core.take_runnable(0), d.task);
    core.finish(d.task, newly);
    (void)w;
  }

  // Four readers assigned, nothing resident: only `prefetch_window` may
  // park with loads in flight.
  EXPECT_EQ(core.backlog(0), 4u);
  EXPECT_NE(core.next_to_stage(0, StageSelect::Missing).task, kInvalidTask);
  core.stage(core.pending_tasks(0).back(), 1);
  EXPECT_NE(core.next_to_stage(0, StageSelect::Missing).task, kInvalidTask);
  core.stage(core.pending_tasks(0).back(), 1);
  EXPECT_EQ(core.next_to_stage(0, StageSelect::Missing).task, kInvalidTask)
      << "third missing-class stage must be blocked by the window";
  EXPECT_EQ(core.pending(0), 2u);

  // A resident candidate still stages freely past the exhausted window.
  probe.resident.insert("in3");
  EXPECT_NE(core.next_to_stage(0, StageSelect::Resident).task, kInvalidTask);
}

TEST(ExecutorCore, DemandSlotsExtendTheWindowWhileComputeIsIdle) {
  TaskGraph g;
  g.add(make_task("w", {}, {{"in", 0, 8}}));
  g.add(make_task("r", {{"in", 0, 8}}, {{"out", 0, 8}}));
  g.build();
  FakeProbe probe;
  CoreConfig cfg;
  cfg.prefetch_window = 0;  // no prefetch at all...
  cfg.demand_slots = 1;     // ...but an idle compute slot may demand-stage
  ExecutorCore core(g, {0, 0}, 1, cfg, &probe);

  std::vector<std::pair<int, TaskId>> newly;
  const StageDecision w = core.next_to_stage(0, StageSelect::Resident);
  core.stage(w.task, 0);
  core.take_runnable(0);
  core.finish(w.task, newly);

  const StageDecision r = core.next_to_stage(0, StageSelect::Missing);
  ASSERT_NE(r.task, kInvalidTask) << "idle demand slot must open the window";
  core.stage(r.task, 1);
  EXPECT_EQ(core.next_to_stage(0, StageSelect::Missing).task, kInvalidTask)
      << "the pending task consumes the only demand slot";
}

TEST(ExecutorCore, RefreshPromotesArrivedAndDemotesEvicted) {
  TaskGraph g;
  g.add(make_task("w", {}, {{"in", 0, 8}}));
  const TaskId r = g.add(make_task("r", {{"in", 0, 8}}, {{"out", 0, 8}}));
  g.build();
  FakeProbe probe;
  ExecutorCore core(g, {0, 0}, 1, {}, &probe);

  std::vector<std::pair<int, TaskId>> newly;
  const StageDecision w = core.next_to_stage(0, StageSelect::Resident);
  core.stage(w.task, 0);
  core.take_runnable(0);
  core.finish(w.task, newly);

  // DES-style: park with a symbolic event count, promote by re-probing.
  core.stage(core.next_to_stage(0, StageSelect::Missing).task, 1);
  EXPECT_EQ(core.state(r), TaskState::InputsPending);
  core.refresh(0);
  EXPECT_EQ(core.state(r), TaskState::InputsPending) << "data has not arrived yet";
  probe.resident.insert("in");
  core.refresh(0);
  EXPECT_EQ(core.state(r), TaskState::Runnable);

  // Eviction between turns sends it back to Assigned.
  probe.resident.erase("in");
  core.refresh(0);
  EXPECT_EQ(core.state(r), TaskState::Assigned);
  EXPECT_EQ(core.backlog(0), 1u);
}

TEST(ExecutorCore, DataAwarePolicyPicksResidentBytesAndFlagsReorder) {
  TaskGraph g;
  g.add(make_task("w0", {}, {{"a", 0, 8}}));
  g.add(make_task("w1", {}, {{"b", 0, 800}}));
  Task early = make_task("early", {{"a", 0, 8}}, {{"x", 0, 8}});
  early.group = 0;
  early.seq = 0;
  Task late = make_task("late", {{"b", 0, 800}}, {{"y", 0, 8}});
  late.group = 0;
  late.seq = 1;
  const TaskId t_early = g.add(std::move(early));
  const TaskId t_late = g.add(std::move(late));
  g.build();
  FakeProbe probe;
  ExecutorCore core(g, std::vector<int>(g.size(), 0), 1, {}, &probe);

  std::vector<std::pair<int, TaskId>> newly;
  for (int i = 0; i < 2; ++i) {
    const StageDecision d = core.next_to_stage(0, StageSelect::Resident);
    core.stage(d.task, 0);
    core.take_runnable(0);
    core.finish(d.task, newly);
  }

  // Only the static-late task's big input is resident: the data-aware
  // policy jumps past static order and says so.
  probe.resident.insert("b");
  const StageDecision d = core.next_to_stage(0, StageSelect::Resident);
  EXPECT_EQ(d.task, t_late);
  EXPECT_TRUE(d.reordered);
  EXPECT_EQ(d.over, t_early);
}

// ---------------------------------------------------------------------------
// Engine on the completion-driven path
// ---------------------------------------------------------------------------

storage::StorageConfig engine_config(const testutil::TempDir& dir) {
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 16ull << 20;
  cfg.default_block_size = 4096;
  return cfg;
}

void import_blocks(storage::StorageNode& node, const std::string& dir_path,
                   const std::string& name, int blocks, std::uint64_t block_bytes) {
  const std::string path = dir_path + "/" + name + ".bin";
  std::ofstream out(path, std::ios::binary);
  std::vector<char> data(static_cast<std::size_t>(blocks) * block_bytes, 'z');
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  node.import_file(name, path, block_bytes);
}

TEST(EngineExec, ParkedTasksCompleteAndRecordWaitMetrics) {
  testutil::TempDir dir("parked");
  storage::StorageConfig cfg = engine_config(dir);
  cfg.throttle_read_bw = 4.0 * 1024 * 1024;  // slow enough that tasks park
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  std::filesystem::create_directories(node.scratch_dir());
  import_blocks(node, node.scratch_dir(), "m", 6, 64 * 1024);

  TaskGraph g;
  for (int i = 0; i < 6; ++i) {
    cluster.node(0).create_array("out" + std::to_string(i), 8, 8);
    Task t = make_task("r" + std::to_string(i),
                       {{"m", static_cast<std::uint64_t>(i) * 64 * 1024, 1024}},
                       {{"out" + std::to_string(i), 0, 8}});
    t.group = 0;
    t.seq = i;
    t.work = [](TaskContext& ctx) {
      ctx.output(0).as<std::uint64_t>()[0] = static_cast<std::uint64_t>(ctx.input(0).bytes()[0]);
    };
    g.add(std::move(t));
  }
  g.build();

  auto& parked = obs::Metrics::instance().counter("sched.tasks_parked", 0);
  const std::uint64_t parked_before = parked.get();
  const std::uint64_t waits_before =
      obs::Metrics::instance().histogram("sched.inputs_pending_us", 0).get().stats().count();

  sched::Engine engine(cluster, {});
  const Report report = engine.run(g);
  EXPECT_EQ(report.tasks_executed, 6u);
  for (int i = 0; i < 6; ++i) {
    auto r = node.request_read({"out" + std::to_string(i), 0, 8}).get();
    EXPECT_EQ(r.as<std::uint64_t>()[0], static_cast<std::uint64_t>('z'));
  }

  EXPECT_GE(parked.get() - parked_before, 1u)
      << "cold reads must park at least one task InputsPending";
  EXPECT_GE(obs::Metrics::instance().histogram("sched.inputs_pending_us", 0).get().stats().count(),
            waits_before + 1);
}

// Satellite of the completion-driven refactor: when a run unwinds with
// storage requests still in flight, their completions must land in a closed
// queue (payload dropped, pins released) — never on freed engine state.
// Run under the tsan/asan presets, this is the use-after-free regression.
TEST(EngineExec, AbortWithLoadsInFlightThenReusesClusterSafely) {
  testutil::TempDir dir("inflight");
  storage::StorageConfig cfg = engine_config(dir);
  cfg.throttle_read_bw = 64.0 * 1024;  // ~1 s per 64 KB block: loads outlive the run
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  std::filesystem::create_directories(node.scratch_dir());
  import_blocks(node, node.scratch_dir(), "m", 4, 64 * 1024);

  TaskGraph g;
  Task bomb = make_task("bomb", {}, {{"bomb_out", 0, 8}});
  cluster.node(0).create_array("bomb_out", 8, 8);
  bomb.work = [](TaskContext&) { throw std::runtime_error("bomb"); };
  g.add(std::move(bomb));
  for (int i = 0; i < 4; ++i) {
    cluster.node(0).create_array("fly_out" + std::to_string(i), 8, 8);
    Task t = make_task("r" + std::to_string(i),
                       {{"m", static_cast<std::uint64_t>(i) * 64 * 1024, 1024}},
                       {{"fly_out" + std::to_string(i), 0, 8}});
    t.seq = i + 1;
    t.work = [](TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 1; };
    g.add(std::move(t));
  }
  g.build();

  sched::Engine engine(cluster, {});
  EXPECT_THROW(engine.run(g), std::runtime_error);

  // The same engine and cluster must stay usable: a second run opens the
  // queues under a new epoch, and any straggler completions of the aborted
  // run are dropped (stale tag), not misrouted to the new run's tasks.
  TaskGraph g2;
  cluster.node(0).create_array("again", 8, 8);
  Task ok = make_task("ok", {{"m", 0, 1024}}, {{"again", 0, 8}});
  ok.work = [](TaskContext& ctx) {
    ctx.output(0).as<std::uint64_t>()[0] = static_cast<std::uint64_t>(ctx.input(0).bytes()[0]);
  };
  g2.add(std::move(ok));
  g2.build();
  const Report report = engine.run(g2);
  EXPECT_EQ(report.tasks_executed, 1u);
  auto r = node.request_read({"again", 0, 8}).get();
  EXPECT_EQ(r.as<std::uint64_t>()[0], static_cast<std::uint64_t>('z'));
}

// ---------------------------------------------------------------------------
// Remote-executor recovery: faults after dispatch and node loss
// ---------------------------------------------------------------------------

/// Stage `node`'s next resident task and take it to Running.
TaskId start_next(ExecutorCore& core, int node) {
  const StageDecision d = core.next_to_stage(node, StageSelect::Resident);
  if (d.task == kInvalidTask) return kInvalidTask;
  core.stage(d.task, 0);
  return core.take_runnable(node);
}

TEST(ExecutorCore, FaultOnARunningTaskRetriesThenPoisonsItsSuccessors) {
  TaskGraph g;
  const TaskId a = g.add(make_task("a", {}, {{"x", 0, 8}}));
  const TaskId b = g.add(make_task("b", {{"x", 0, 8}}, {{"y", 0, 8}}));
  g.build();
  FakeProbe probe;
  CoreConfig cfg;
  cfg.max_task_retries = 1;
  ExecutorCore core(g, {0, 0}, 1, cfg, &probe);

  EXPECT_EQ(core.fault(a, nullptr), ExecutorCore::FaultAction::Ignored) << "a is only Assigned";
  ASSERT_EQ(start_next(core, 0), a);
  EXPECT_EQ(core.running(0), std::vector<TaskId>{a});
  EXPECT_EQ(core.fault(a, nullptr), ExecutorCore::FaultAction::Retry);
  EXPECT_EQ(core.state(a), TaskState::Assigned);
  EXPECT_TRUE(core.running(0).empty());
  EXPECT_EQ(core.retries(a), 1);

  ASSERT_EQ(start_next(core, 0), a);
  std::vector<TaskId> poisoned;
  EXPECT_EQ(core.fault(a, &poisoned), ExecutorCore::FaultAction::Poisoned);
  EXPECT_EQ(poisoned, (std::vector<TaskId>{a, b}));
  EXPECT_TRUE(core.running(0).empty());
  EXPECT_TRUE(core.all_settled());
  EXPECT_FALSE(core.all_done());
}

TEST(ExecutorCore, ReassignMovesEveryUnsettledTaskOfALostNodeToSurvivors) {
  // `seq` fixes the Fifo order on node 0: done, failed, run, queued.
  const auto seq_task = [](std::string name, std::vector<Interval> in, std::string out,
                           std::int64_t seq) {
    Task t = make_task(std::move(name), std::move(in), {{std::move(out), 0, 8}});
    t.seq = seq;
    return t;
  };
  TaskGraph g;
  const TaskId done = g.add(seq_task("done", {}, "d", 0));
  const TaskId failed = g.add(seq_task("failed", {}, "f", 1));
  const TaskId run = g.add(seq_task("run", {}, "r", 2));
  const TaskId queued = g.add(seq_task("queued", {}, "q", 3));
  const TaskId waiting = g.add(seq_task("waiting", {{"r", 0, 8}}, "w", 4));
  const TaskId elsewhere = g.add(seq_task("elsewhere", {}, "e", 5));
  g.build();
  FakeProbe probe;
  probe.resident = {"r"};
  CoreConfig cfg;
  cfg.policy = LocalPolicy::Fifo;
  cfg.max_task_retries = 1;
  ExecutorCore core(g, {0, 0, 0, 0, 0, 1}, 3, cfg, &probe);

  // Node 0 ends up holding one task in each state: Done, Faulted, Running
  // (after one failed attempt), Assigned and Waiting.
  std::vector<std::pair<int, TaskId>> newly;
  ASSERT_EQ(start_next(core, 0), done);
  core.finish(done, newly);
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_EQ(start_next(core, 0), failed);
    core.fault(failed, nullptr);
  }
  ASSERT_EQ(core.state(failed), TaskState::Faulted);
  ASSERT_EQ(start_next(core, 0), run);
  ASSERT_EQ(core.fault(run, nullptr), ExecutorCore::FaultAction::Retry);
  ASSERT_EQ(start_next(core, 0), run);
  ASSERT_EQ(core.state(queued), TaskState::Assigned);
  ASSERT_EQ(core.state(waiting), TaskState::Waiting);

  // Unsettled tasks of node 0 in id order: run -> 1, queued -> 2, waiting -> 1.
  EXPECT_EQ(core.reassign(0, {1, 2}), std::vector<TaskId>{run});
  EXPECT_TRUE(core.running(0).empty());
  EXPECT_EQ(core.backlog(0), 0u);
  EXPECT_EQ(core.state(done), TaskState::Done);
  EXPECT_EQ(core.state(failed), TaskState::Faulted);
  EXPECT_EQ(core.state(run), TaskState::Assigned);
  EXPECT_EQ(core.state(queued), TaskState::Assigned);
  EXPECT_EQ(core.state(waiting), TaskState::Waiting);
  EXPECT_EQ(core.retries(run), 1) << "a re-queue after node loss is not a retry";
  EXPECT_EQ(core.retries(queued), 0);
  EXPECT_EQ(core.backlog(1), 2u) << "run, plus elsewhere's own task";
  EXPECT_EQ(core.backlog(2), 1u) << "queued";

  // A second loss report for the same node moves nothing.
  EXPECT_TRUE(core.reassign(0, {1, 2}).empty());
  EXPECT_EQ(core.backlog(1), 2u);
  EXPECT_EQ(core.backlog(2), 1u);

  // `run` finishes on its new node and releases `waiting` there too.
  ASSERT_EQ(start_next(core, 1), run);
  newly.clear();
  core.finish(run, newly);
  EXPECT_EQ(newly, (std::vector<std::pair<int, TaskId>>{{1, waiting}}));
  ASSERT_EQ(start_next(core, 1), waiting);
  core.finish(waiting, newly);
  ASSERT_EQ(start_next(core, 1), elsewhere);
  core.finish(elsewhere, newly);
  ASSERT_EQ(start_next(core, 2), queued);
  core.finish(queued, newly);
  EXPECT_TRUE(core.all_settled());
  EXPECT_EQ(core.faulted_tasks(), std::vector<TaskId>{failed});
}

// ---------------------------------------------------------------------------
// Transient arrays: released after their last reader
// ---------------------------------------------------------------------------

/// Stage, run and finish the next runnable task on node 0; returns what the
/// finish released.
std::vector<std::string> run_next(ExecutorCore& core, TaskId expect) {
  for (const StageSelect select : {StageSelect::Resident, StageSelect::Missing}) {
    const StageDecision d = core.next_to_stage(0, select);
    if (d.task != kInvalidTask) core.stage(d.task, 0);
  }
  EXPECT_EQ(core.take_runnable(0), expect);
  std::vector<std::pair<int, TaskId>> newly;
  std::vector<std::string> released;
  core.finish(expect, newly, &released);
  return released;
}

TEST(ExecutorCore, ReleasesATransientArrayOnceAfterItsLastReader) {
  TaskGraph g;
  const TaskId w = g.add(make_task("w", {}, {{"mid", 0, 16}}));
  const TaskId r1 = g.add(make_task("r1", {{"mid", 0, 8}}, {{"a", 0, 8}}));
  const TaskId r2 = g.add(make_task("r2", {{"mid", 8, 8}, {"a", 0, 8}}, {{"b", 0, 8}}));
  const TaskId c = g.add(make_task("c", {{"b", 0, 8}}, {{"out", 0, 8}}));
  g.mark_transient("mid");
  g.mark_transient("b");
  g.build();
  FakeProbe probe;
  probe.resident = {"mid", "a", "b"};
  ExecutorCore core(g, {0, 0, 0, 0}, 1, {}, &probe);

  EXPECT_TRUE(run_next(core, w).empty()) << "a writer is not a reader";
  EXPECT_TRUE(run_next(core, r1).empty()) << "r2 still reads `mid`";
  EXPECT_EQ(run_next(core, r2), std::vector<std::string>{"mid"});
  EXPECT_EQ(run_next(core, c), std::vector<std::string>{"b"});
  EXPECT_TRUE(core.all_done());
}

TEST(EngineExec, UnmarkedOutputsStayReadableAndMarkedOnesAreReleased) {
  for (const bool mark : {false, true}) {
    SCOPED_TRACE(mark ? "mid marked transient" : "no marks");
    testutil::TempDir dir("release_marks");
    storage::StorageConfig cfg;
    cfg.scratch_root = dir.str();
    storage::StorageCluster cluster(2, cfg);
    cluster.node(0).create_array("mid", 8, 8);
    cluster.node(1).create_array("out", 8, 8);

    TaskGraph g;
    Task produce = make_task("produce", {}, {{"mid", 0, 8}});
    produce.preferred_node = 0;
    produce.work = [](TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 7; };
    Task consume = make_task("consume", {{"mid", 0, 8}}, {{"out", 0, 8}});
    consume.preferred_node = 1;
    consume.work = [](TaskContext& ctx) {
      ctx.output(0).as<std::uint64_t>()[0] = ctx.input(0).as<std::uint64_t>()[0] * 3;
    };
    g.add(std::move(produce));
    g.add(std::move(consume));
    if (mark) g.mark_transient("mid");
    g.build();

    sched::Engine engine(cluster, {});
    const Report report = engine.run(g);
    EXPECT_EQ(report.tasks_executed, 2u);
    EXPECT_EQ(cluster.node(1).request_read({"out", 0, 8}).get().as<std::uint64_t>()[0], 21u);
    if (mark) {
      EXPECT_EQ(testutil::resident_bytes_of(cluster, {"mid"}), 0u)
          << "both copies (producer's and consumer's) are dropped";
      EXPECT_EQ(report.storage.released_bytes, 16u);
    } else {
      EXPECT_EQ(testutil::resident_bytes_of(cluster, {"mid"}), 16u);
      EXPECT_EQ(cluster.node(0).request_read({"mid", 0, 8}).get().as<std::uint64_t>()[0], 7u);
      EXPECT_EQ(report.storage.released_bytes, 0u);
    }
    // The catalog entry survives a release: the array deletes as usual.
    cluster.node(0).delete_array("mid");
  }
}

/// One iterated-SpMV solve on two nodes; residency is sampled after run()
/// and before cleanup_intermediates().
struct SolveOutcome {
  std::vector<double> result;
  std::uint64_t transient_bytes = 0;     ///< intermediates still resident
  std::uint64_t non_matrix_bytes = 0;    ///< resident bytes outside the matrix
  std::uint64_t node_matrix_bytes = 0;   ///< matrix bytes owned by node 0
  std::uint64_t released_bytes = 0;
};

SolveOutcome solve_on_two_nodes(int iterations, std::uint64_t budget) {
  testutil::TempDir dir("release_spmv");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = budget;
  storage::StorageCluster cluster(2, cfg);

  spmv::CsrMatrix m = spmv::generate_uniform_gap(2048, 2048, 16.0, 0x5eed);
  for (auto& v : m.values) v *= 0.05;
  const auto owner = spmv::column_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 4, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0, [](std::uint64_t i) {
    return 1.0 + 1e-3 * static_cast<double>(i);
  });
  solver::IteratedSpmvConfig config;
  config.iterations = iterations;
  solver::IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, {});
  const Report report = driver.run(engine);

  SolveOutcome out;
  std::vector<std::string> matrix;
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < 4; ++v) {
      matrix.push_back(deployed.name_of(u, v));
      if (deployed.owner_of(u, v) == 0) out.node_matrix_bytes += deployed.bytes_of(u, v);
    }
  }
  out.transient_bytes = testutil::resident_bytes_of(cluster, driver.graph().transient_arrays());
  out.non_matrix_bytes =
      cluster.total_resident_bytes() - testutil::resident_bytes_of(cluster, matrix);
  out.released_bytes = report.storage.released_bytes;
  out.result = driver.gather_result();
  driver.cleanup_intermediates();
  return out;
}

TEST(EngineExec, IteratedSpmvReleasesIntermediatesOutOfCore) {
  constexpr std::uint64_t kBudget = 1ull << 20;
  const SolveOutcome two = solve_on_two_nodes(2, kBudget);
  const SolveOutcome six = solve_on_two_nodes(6, kBudget);
  const SolveOutcome in_core = solve_on_two_nodes(6, 256ull << 20);
  ASSERT_GT(six.node_matrix_bytes, kBudget) << "the matrix must not fit: out-of-core";

  EXPECT_EQ(two.transient_bytes, 0u) << "partials, sync tokens and old iterates are gone";
  EXPECT_EQ(six.transient_bytes, 0u);
  EXPECT_GT(six.released_bytes, two.released_bytes);
  // Which matrix blocks survive eviction depends on timing; everything
  // else resident (x^0, its remote copies, the final iterate) must not
  // grow with the iteration count.
  EXPECT_EQ(six.non_matrix_bytes, two.non_matrix_bytes);
  EXPECT_EQ(six.result, in_core.result) << "bitwise equal to the in-core solve";
}

}  // namespace
}  // namespace dooc::sched
