#include <gtest/gtest.h>

#include "sched/engine.hpp"
#include "sched/global_scheduler.hpp"
#include "sched/task.hpp"
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

TEST(TaskGraph, DerivesEdgesFromIntervalOverlap) {
  TaskGraph g;
  const TaskId a = g.add(make_task("a", {}, {{"x", 0, 100}}));
  const TaskId b = g.add(make_task("b", {{"x", 0, 50}}, {{"y", 0, 50}}));
  const TaskId c = g.add(make_task("c", {{"x", 50, 50}}, {{"z", 0, 50}}));
  const TaskId d = g.add(make_task("d", {{"y", 0, 50}, {"z", 0, 50}}, {{"w", 0, 50}}));
  g.build();

  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.successors(a), (std::vector<TaskId>{b, c}));
  EXPECT_EQ(g.predecessors(d), (std::vector<TaskId>{b, c}));
  EXPECT_EQ(g.topo_order(), (std::vector<TaskId>{a, b, c, d}));
}

TEST(TaskGraph, NonOverlappingIntervalsCreateNoEdge) {
  TaskGraph g;
  g.add(make_task("a", {}, {{"x", 0, 50}}));
  const TaskId b = g.add(make_task("b", {{"x", 50, 50}}, {}));
  // b reads a different region of x than a writes: no producer exists.
  // Register another writer of that region to keep the read satisfiable.
  g.add(make_task("c", {}, {{"x", 50, 50}}));
  g.build();
  EXPECT_EQ(g.predecessors(b).size(), 1u);
  EXPECT_EQ(g.task(g.predecessors(b)[0]).name, "c");
}

TEST(TaskGraph, WriteOnceViolationDetected) {
  TaskGraph g;
  g.add(make_task("w1", {}, {{"x", 0, 100}}));
  g.add(make_task("w2", {}, {{"x", 50, 100}}));
  EXPECT_THROW(g.build(), ImmutabilityViolation);
}

TEST(TaskGraph, SelfReadThrows) {
  TaskGraph g;
  g.add(make_task("loop", {{"x", 0, 10}}, {{"x", 0, 10}}));
  EXPECT_THROW(g.build(), InvalidArgument);
}

TEST(TaskGraph, WriterOfResolvesProducers) {
  TaskGraph g;
  const TaskId a = g.add(make_task("a", {}, {{"x", 0, 100}}));
  g.build();
  EXPECT_EQ(g.writer_of({"x", 10, 20}), a);
  EXPECT_EQ(g.writer_of({"y", 0, 10}), kInvalidTask);
}

class FakeLocator final : public DataLocator {
 public:
  explicit FakeLocator(std::map<std::string, int> homes) : homes_(std::move(homes)) {}
  [[nodiscard]] int home_of(const storage::ArrayName& name) const override {
    auto it = homes_.find(name);
    return it == homes_.end() ? -1 : it->second;
  }

 private:
  std::map<std::string, int> homes_;
};

TEST(GlobalScheduler, AffinityFollowsTheBytes) {
  TaskGraph g;
  // t reads 1000 bytes from node 1's array and 10 from node 0's.
  g.add(make_task("big0", {}, {{"a", 0, 1000}}));
  const TaskId t = g.add(make_task("t", {{"a", 0, 1000}, {"b", 0, 10}}, {{"c", 0, 10}}));
  // consumer of c should follow t's assignment (producer-located input).
  const TaskId u = g.add(make_task("u", {{"c", 0, 10}}, {{"d", 0, 10}}));
  g.task(0).preferred_node = 1;  // pin the producer of a to node 1
  g.build();

  GlobalScheduler sched(2);
  FakeLocator locator({{"b", 0}});
  const auto assignment = sched.assign(g, locator);
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[t], 1) << "affinity should follow the 1000-byte input";
  EXPECT_EQ(assignment[u], 1) << "consumers follow their producers";
}

TEST(GlobalScheduler, RoundRobinDistributes) {
  TaskGraph g;
  for (int i = 0; i < 6; ++i) {
    g.add(make_task("t" + std::to_string(i), {}, {{"x" + std::to_string(i), 0, 8}}));
  }
  g.build();
  GlobalScheduler sched(3, GlobalPolicy::RoundRobin);
  FakeLocator locator({});
  const auto assignment = sched.assign(g, locator);
  std::vector<int> counts(3, 0);
  for (int node : assignment) ++counts[static_cast<std::size_t>(node)];
  EXPECT_EQ(counts, (std::vector<int>{2, 2, 2}));
}

TEST(GlobalScheduler, PinnedTaskBeyondClusterThrows) {
  TaskGraph g;
  auto t = make_task("t", {}, {{"x", 0, 8}});
  t.preferred_node = 7;
  g.add(std::move(t));
  g.build();
  GlobalScheduler sched(2);
  FakeLocator locator({});
  EXPECT_THROW(sched.assign(g, locator), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

storage::StorageConfig engine_config(const testutil::TempDir& dir) {
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 16ull << 20;
  cfg.default_block_size = 4096;
  return cfg;
}

TEST(Engine, ExecutesDiamondDagInDependencyOrder) {
  testutil::TempDir dir("diamond");
  storage::StorageCluster cluster(1, engine_config(dir));
  cluster.node(0).create_array("a", 8, 8);
  cluster.node(0).create_array("b", 8, 8);
  cluster.node(0).create_array("c", 8, 8);
  cluster.node(0).create_array("d", 8, 8);

  TaskGraph g;
  auto writer = [](std::uint64_t value) {
    return [value](TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = value; };
  };
  Task src = make_task("src", {}, {{"a", 0, 8}});
  src.work = writer(10);
  Task left = make_task("left", {{"a", 0, 8}}, {{"b", 0, 8}});
  left.work = [](TaskContext& ctx) {
    ctx.output(0).as<std::uint64_t>()[0] = ctx.input(0).as<std::uint64_t>()[0] + 1;
  };
  Task right = make_task("right", {{"a", 0, 8}}, {{"c", 0, 8}});
  right.work = [](TaskContext& ctx) {
    ctx.output(0).as<std::uint64_t>()[0] = ctx.input(0).as<std::uint64_t>()[0] * 2;
  };
  Task join = make_task("join", {{"b", 0, 8}, {"c", 0, 8}}, {{"d", 0, 8}});
  join.work = [](TaskContext& ctx) {
    ctx.output(0).as<std::uint64_t>()[0] =
        ctx.input(0).as<std::uint64_t>()[0] + ctx.input(1).as<std::uint64_t>()[0];
  };
  g.add(std::move(src));
  g.add(std::move(left));
  g.add(std::move(right));
  g.add(std::move(join));
  g.build();

  sched::Engine engine(cluster, {});
  const Report report = engine.run(g);
  EXPECT_EQ(report.tasks_executed, 4u);

  auto r = cluster.node(0).request_read({"d", 0, 8}).get();
  EXPECT_EQ(r.as<std::uint64_t>()[0], 11u + 20u);  // (10+1) + (10*2)
}

TEST(Engine, MultiNodeProducerConsumerAcrossNodes) {
  testutil::TempDir dir("cross");
  storage::StorageCluster cluster(2, engine_config(dir));
  cluster.node(0).create_array("src", 8, 8);
  cluster.node(1).create_array("dst", 8, 8);

  TaskGraph g;
  Task produce = make_task("produce", {}, {{"src", 0, 8}});
  produce.preferred_node = 0;
  produce.work = [](TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 5; };
  Task consume = make_task("consume", {{"src", 0, 8}}, {{"dst", 0, 8}});
  consume.preferred_node = 1;
  consume.work = [](TaskContext& ctx) {
    EXPECT_EQ(ctx.node(), 1);
    ctx.output(0).as<std::uint64_t>()[0] = ctx.input(0).as<std::uint64_t>()[0] + 100;
  };
  g.add(std::move(produce));
  g.add(std::move(consume));
  g.build();

  sched::Engine engine(cluster, {});
  const Report report = engine.run(g);
  auto r = cluster.node(1).request_read({"dst", 0, 8}).get();
  EXPECT_EQ(r.as<std::uint64_t>()[0], 105u);
  EXPECT_GE(report.cross_node_bytes, 8u);
}

TEST(Engine, TaskExceptionAbortsRunAndRethrows) {
  testutil::TempDir dir("abort");
  storage::StorageCluster cluster(1, engine_config(dir));
  cluster.node(0).create_array("x", 8, 8);
  TaskGraph g;
  Task bad = make_task("bad", {}, {{"x", 0, 8}});
  bad.work = [](TaskContext&) { throw std::runtime_error("task exploded"); };
  g.add(std::move(bad));
  g.build();
  sched::Engine engine(cluster, {});
  EXPECT_THROW(engine.run(g), std::runtime_error);
}

TEST(Engine, TraceRecordsEveryTask) {
  testutil::TempDir dir("trace");
  storage::StorageCluster cluster(1, engine_config(dir));
  for (int i = 0; i < 4; ++i) {
    cluster.node(0).create_array("t" + std::to_string(i), 8, 8);
  }
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    Task t = make_task("task" + std::to_string(i), {}, {{"t" + std::to_string(i), 0, 8}});
    t.group = 1;
    t.seq = i;
    t.work = [](TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 0; };
    g.add(std::move(t));
  }
  g.build();
  sched::Engine engine(cluster, {});
  const Report report = engine.run(g);
  ASSERT_EQ(report.trace.size(), 4u);
  for (const auto& ev : report.trace) {
    EXPECT_GE(ev.end, ev.start);
    EXPECT_EQ(ev.node, 0);
  }
}

TEST(Engine, FifoPolicyRunsInSubmissionOrderOnOneSlot) {
  testutil::TempDir dir("fifo");
  storage::StorageCluster cluster(1, engine_config(dir));
  std::vector<int> order;
  std::mutex order_mutex;
  TaskGraph g;
  for (int i = 0; i < 5; ++i) {
    cluster.node(0).create_array("o" + std::to_string(i), 8, 8);
    Task t = make_task("t" + std::to_string(i), {}, {{"o" + std::to_string(i), 0, 8}});
    t.group = 0;
    t.seq = i;
    t.work = [i, &order, &order_mutex](TaskContext& ctx) {
      std::lock_guard lock(order_mutex);
      order.push_back(i);
      ctx.output(0).as<std::uint64_t>()[0] = 0;
    };
    g.add(std::move(t));
  }
  g.build();
  EngineConfig cfg;
  cfg.local_policy = LocalPolicy::Fifo;
  sched::Engine engine(cluster, cfg);
  engine.run(g);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace dooc::sched
