#include <gtest/gtest.h>

#include <climits>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "jobs/job_manager.hpp"
#include "obs/telemetry.hpp"
#include "storage/types.hpp"

namespace dooc {
namespace {

TEST(DataBuffer, AllocatesRequestedSize) {
  DataBuffer b(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_NE(b.data(), nullptr);
  EXPECT_FALSE(b.empty());
}

TEST(DataBuffer, DefaultIsEmpty) {
  DataBuffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
}

TEST(DataBuffer, CopyAliasesPayload) {
  DataBuffer a(8);
  a.as<std::uint64_t>()[0] = 42;
  DataBuffer b = a;  // NOLINT: intentional alias
  b.as<std::uint64_t>()[0] = 7;
  EXPECT_EQ(a.as<std::uint64_t>()[0], 7u);
  EXPECT_EQ(a, b);
}

TEST(DataBuffer, CloneIsDeep) {
  DataBuffer a(8);
  a.as<std::uint64_t>()[0] = 42;
  DataBuffer b = a.clone();
  b.as<std::uint64_t>()[0] = 7;
  EXPECT_EQ(a.as<std::uint64_t>()[0], 42u);
  EXPECT_NE(a, b);
}

TEST(DataBuffer, AsRejectsMisalignedSize) {
  DataBuffer a(10);
  EXPECT_THROW(a.as<std::uint64_t>(), InvalidArgument);
}

TEST(Serialize, RoundTripsScalarsStringsVectors) {
  BinaryWriter w;
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.5);
  w.put_string("hello dooc");
  std::vector<std::uint64_t> vals{1, 2, 3, 5, 8};
  w.put_span<std::uint64_t>(vals);
  DataBuffer buf = w.take();

  BinaryReader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get_string(), "hello dooc");
  EXPECT_EQ(r.get_vector<std::uint64_t>(), vals);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncationThrows) {
  BinaryWriter w;
  w.put<std::uint32_t>(1);
  DataBuffer buf = w.take();
  BinaryReader r(buf);
  EXPECT_THROW(r.get<std::uint64_t>(), IoError);
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, CloseDrainsThenSignalsEos) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, BoundedCapacityBlocksProducer) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  EXPECT_FALSE(q.try_push(2));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.pop();
  });
  EXPECT_TRUE(q.push(2));  // unblocks when the consumer pops
  consumer.join();
}

TEST(BlockingQueue, ConcurrentProducersConsumers) {
  BlockingQueue<int> q(16);
  constexpr int kPerProducer = 500;
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum += *v;
    });
  }
  threads[0].join();
  threads[1].join();
  q.close();
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(sum.load(), 2L * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(pool.submit([&] { ++counter; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelRangesPartitionIsExact) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_ranges(103, [&](std::size_t b, std::size_t e) {
    std::lock_guard lock(m);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  std::size_t expect = 0;
  for (auto [b, e] : ranges) {
    EXPECT_EQ(b, expect);
    EXPECT_LT(b, e);
    expect = e;
  }
  EXPECT_EQ(expect, 103u);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  SplitMix64 rng(7);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Formatting, HumanReadableUnits) {
  EXPECT_EQ(format_bytes(1536.0), "1.50 KiB");
  EXPECT_EQ(format_bandwidth(18.7e9), "18.70 GB/s");
  EXPECT_EQ(format_count(12.8e9), "12.80 G");
  EXPECT_EQ(format_duration(0.5), "500.0 ms");
}

TEST(SplitMix64, DeterministicAndSeedSensitive) {
  SplitMix64 a(1), b(1), c(2);
  EXPECT_EQ(a.next(), b.next());
  SplitMix64 a2(1);
  EXPECT_NE(a2.next(), c.next());
}

TEST(SplitMix64, BoundsRespected) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, NextBelowCoversRange) {
  SplitMix64 rng(123);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.next_below(7)];
  for (int h : hits) EXPECT_GT(h, 500);  // roughly uniform
}

TEST(Options, TypedAccessorsAndDefaults) {
  Options o;
  o.set_int("nodes", 9);
  o.set_double("bw", 1.5);
  o.set_bool("sync", true);
  o.set("name", "dooc");
  EXPECT_EQ(o.get_int("nodes", 0), 9);
  EXPECT_DOUBLE_EQ(o.get_double("bw", 0.0), 1.5);
  EXPECT_TRUE(o.get_bool("sync", false));
  EXPECT_EQ(o.get("name"), "dooc");
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Options, ParsesCommandLineStyleArgs) {
  const char* argv[] = {"prog", "--nodes=4", "--verbose", "--bw=2.5"};
  Options o = Options::from_args(4, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("nodes", 0), 4);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(o.get_double("bw", 0.0), 2.5);
}

/// Expect `fn` to throw InvalidArgument whose message starts with `prefix`
/// and mentions `names`.
void expect_invalid(const std::function<void()>& fn, const std::string& prefix,
                    const std::string& names, const std::string& label) {
  try {
    fn();
    ADD_FAILURE() << label << ": accepted";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(prefix, 0), 0u) << label << ": " << msg;
    EXPECT_NE(msg.find(names), std::string::npos) << label << ": " << msg;
  }
}

TEST(Options, RejectsMalformedValuesNamingTheKey) {
  const char* argv[] = {"prog", "--nodes=abc", "--n=12junk", "--bw=1e999", "--sync=maybe",
                        "--big=9223372036854775808", "--rate=nan"};
  const Options o = Options::from_args(7, const_cast<char**>(argv));
  expect_invalid([&] { (void)o.get_int("nodes", 0); }, "--nodes", "abc", "--nodes=abc");
  expect_invalid([&] { (void)o.get_int("n", 0); }, "--n", "12junk", "--n=12junk");
  expect_invalid([&] { (void)o.get_double("bw", 0.0); }, "--bw", "1e999", "--bw=1e999");
  expect_invalid([&] { (void)o.get_bool("sync", false); }, "--sync", "maybe", "--sync=maybe");
  expect_invalid([&] { (void)o.get_int("big", 0); }, "--big", "922", "--big=2^63");
  expect_invalid([&] { (void)o.get_double("rate", 0.0); }, "--rate", "nan", "--rate=nan");
}

// One hostile-input table for every DOOC_* policy variable: each parse()
// rejects the same malformed shapes, with an error naming the variable.
struct SpecVar {
  std::string name;
  std::function<void(const std::string&)> parse;
  std::string unsigned_key;  ///< a key whose range excludes -1
  std::string int_key;       ///< an int-typed key (no values past INT_MAX)
  std::string float_key;     ///< a float key, else another numeric key
  std::vector<std::string> rejected;  ///< the variable's own hostile specs
};

std::vector<SpecVar> spec_vars() {
  return {
      {"DOOC_FAULTS", [](const std::string& s) { (void)fault::FaultPlan::parse(s); }, "seed",
       "retries", "read_error",
       {"read_error=0.1xyz", "seed=-1", "retries=-3", "down=1@5x", "down=-2@5", "deadline=nan",
        "backoff=-5ms:1ms", "latency=0.1:inf", "down=1@5+x", "deadline=5fortnights"}},
      {"DOOC_JOBS", [](const std::string& s) { (void)jobs::JobManagerConfig::parse(s); },
       "active", "queued", "active", {"active", "active=2x"}},
      {"DOOC_TELEMETRY",
       [](const std::string& s) { (void)obs::telemetry::TelemetryConfig::parse(s); }, "port",
       "interval", "zscore", {"bogus", "mode=on", "history=1"}},
      {"DOOC_REPLICATION",
       [](const std::string& s) { (void)storage::ReplicationConfig::parse(s); }, "decay",
       "decay", "hot_threshold", {"maybe", "mode=maybe", "=5", "max_replicas=3"}},
  };
}

TEST(Spec, EveryPolicyVariableRejectsHostileInput) {
  const std::string past_int = std::to_string(static_cast<long long>(INT_MAX) + 1);
  for (const SpecVar& v : spec_vars()) {
    const auto expect_rejected = [&](const std::string& spec, const std::string& names) {
      expect_invalid([&] { v.parse(spec); }, v.name + ":", names, v.name + "=" + spec);
    };
    for (const std::string& spec : v.rejected) {
      expect_rejected(spec, spec.substr(0, spec.find('=')));  // names the key
    }
    expect_rejected(v.int_key + "=2,bogus", "bogus");
    expect_rejected("no_such_key=1", "no_such_key");
    expect_rejected(v.unsigned_key + "=-1", v.unsigned_key);
    expect_rejected(v.int_key + "=" + past_int, v.int_key);
    expect_rejected(v.int_key + "=99999999999999999999", v.int_key);
    for (const char* bad : {"1e999", "nan", "inf", "-inf", "0x10", "", "1.5.5"}) {
      expect_rejected(v.float_key + "=" + bad, v.float_key);
    }
    for (const char* bad : {"0x10", "1.5", "1e3", "7 8"}) {
      expect_rejected(v.int_key + "=" + bad, v.int_key);
    }
  }
}

TEST(Spec, EveryPolicyVariableKeepsItsAcceptedForms) {
  // The examples in docs/OPERATIONS.md, plus each variable's mode rules.
  const fault::FaultConfig f = fault::FaultPlan::parse(
      "seed=7,read_error=0.05,write_error=0.01,short_read=0.02,latency=0.1:5ms,down=1@40,"
      "down=0@3+100,retries=4,backoff=1ms:50ms,deadline=1.5");
  EXPECT_EQ(f.seed, 7u);
  EXPECT_DOUBLE_EQ(f.read_error_rate, 0.05);
  EXPECT_DOUBLE_EQ(f.latency_s, 0.005);
  ASSERT_EQ(f.outages.size(), 2u);
  EXPECT_EQ(f.outages[0].duration_ops, UINT64_MAX);
  EXPECT_EQ(f.outages[1].node, 0);
  EXPECT_EQ(f.outages[1].duration_ops, 100u);
  EXPECT_EQ(f.retry.max_attempts, 4);
  EXPECT_DOUBLE_EQ(f.retry.max_backoff_s, 0.050);
  EXPECT_DOUBLE_EQ(f.retry.deadline_s, 0.0015) << "a bare duration is milliseconds";
  EXPECT_DOUBLE_EQ(fault::FaultPlan::parse("deadline=250us").retry.deadline_s, 250e-6);
  EXPECT_DOUBLE_EQ(fault::FaultPlan::parse("deadline=40ns").retry.deadline_s, 40e-9);
  EXPECT_EQ(fault::FaultPlan::parse("seed=18446744073709551615").seed, UINT64_MAX);

  const jobs::JobManagerConfig j = jobs::JobManagerConfig::parse("active=2,queued=8");
  EXPECT_EQ(j.max_active, 2);
  EXPECT_EQ(j.max_queued, 8);

  const auto r = storage::ReplicationConfig::parse("on,hot_threshold=2,decay=16");
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.hot_threshold, 2u);
  EXPECT_EQ(r.decay, 16u);
  EXPECT_TRUE(storage::ReplicationConfig::parse("true").enabled);
  EXPECT_FALSE(storage::ReplicationConfig::parse("hot_threshold=2").enabled)
      << "a spec with keys only stays off";
  const auto r2 = storage::ReplicationConfig::parse(" on , mode = off, decay = 4 ");
  EXPECT_FALSE(r2.enabled) << "a later mode= overrides the leading token";
  EXPECT_EQ(r2.decay, 4u) << "whitespace around tokens, keys and values is trimmed";

  using obs::telemetry::TelemetryConfig;
  const TelemetryConfig t = TelemetryConfig::parse("on,interval=100,port=9464");
  EXPECT_TRUE(t.enabled);
  EXPECT_EQ(t.interval_ms, 100);
  EXPECT_EQ(t.metrics_port, 9464);
  EXPECT_TRUE(TelemetryConfig::parse("interval=100").enabled) << "non-empty means on";
  EXPECT_FALSE(TelemetryConfig::parse("off,interval=100").enabled);
}

TEST(ErrorMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DOOC_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(DOOC_REQUIRE(true, "fine"));
}

TEST(ErrorMacros, CheckThrowsInternalError) {
  EXPECT_THROW(DOOC_CHECK(false, "bug"), InternalError);
}

}  // namespace
}  // namespace dooc
