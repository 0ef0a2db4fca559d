// Hot-block replication: config grammar, decayed heat arithmetic,
// rendezvous replica ranking, the one retention rule (LRU with catalog-hot
// blocks evicted last), the end-to-end replica flow through StorageCluster
// and write-once coherence on the resurrection path.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "storage/replication.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc::storage {
namespace {

// ---------------------------------------------------------------------------
// DOOC_REPLICATION grammar
// ---------------------------------------------------------------------------

TEST(ReplicationConfig, Defaults) {
  const ReplicationConfig cfg = ReplicationConfig::parse("");
  EXPECT_FALSE(cfg.enabled);
  EXPECT_EQ(cfg.hot_threshold, 4u);
  EXPECT_EQ(cfg.decay, 64u);
}

TEST(ReplicationConfig, FullSpec) {
  const ReplicationConfig cfg = ReplicationConfig::parse("on,hot_threshold=2,decay=16");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.hot_threshold, 2u);
  EXPECT_EQ(cfg.decay, 16u);
}

TEST(ReplicationConfig, BareTokenAndModeKey) {
  EXPECT_TRUE(ReplicationConfig::parse("on").enabled);
  EXPECT_FALSE(ReplicationConfig::parse("off").enabled);
  EXPECT_TRUE(ReplicationConfig::parse("1").enabled);
  EXPECT_TRUE(ReplicationConfig::parse("mode=on").enabled);
  EXPECT_FALSE(ReplicationConfig::parse("mode=off").enabled);
  // Trailing / doubled commas are harmless (the Spec grammar skips empty tokens).
  EXPECT_TRUE(ReplicationConfig::parse("on,").enabled);
  EXPECT_TRUE(ReplicationConfig::parse("on,,decay=8").enabled);
}

TEST(ReplicationConfig, HostileInputsThrow) {
  const char* bad[] = {
      "banana",                        // unknown bare token
      "on,banana",                     // bare token past position 0
      "off,on",                        // ditto
      "hot_threshold=0",               // below range
      "hot_threshold=x",               // not a number
      "hot_threshold=",                // empty value
      "hot_threshold=3x",              // trailing junk
      "hot_threshold=99999999999999999999",  // ERANGE
      "decay=0",                       // below range
      "decay=-1",                      // negative
      "mode=maybe",                    // not on/off
      "=5",                            // empty key
      "replicas=2",                    // unknown key
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)ReplicationConfig::parse(spec), InvalidArgument) << "spec: " << spec;
  }
}

// ---------------------------------------------------------------------------
// HeatTracker: decayed counters under virtual (access-count) epochs
// ---------------------------------------------------------------------------

TEST(HeatTracker, CountsRampThenHalveAcrossEpochs) {
  replication::HeatTracker heat(4);  // epoch = one per 4 accesses
  const BlockKey a{"a", 0};
  const BlockKey b{"b", 0};
  // Accesses 0..3 land in epoch 0: the counter ramps 1,2,3,4.
  for (std::uint32_t want = 1; want <= 4; ++want) EXPECT_EQ(heat.record(a), want);
  // The 4th access already moved the clock to epoch 1, so a peek sees the
  // epoch-0 count halved once: 4 >> 1 == 2.
  EXPECT_EQ(heat.peek(a), 2u);
  // Four more accesses (of another key) advance to epoch 1...
  for (int i = 0; i < 4; ++i) heat.record(b);
  // ...and peeking at epoch 2 halves a's epoch-0 count twice: 4 >> 2 == 1.
  EXPECT_EQ(heat.peek(a), 1u);
  // b's count (4, stamped in epoch 1) has halved once: 4 >> 1 == 2.
  EXPECT_EQ(heat.peek(b), 2u);
}

TEST(HeatTracker, LongIdlenessZeroesTheCounter) {
  replication::HeatTracker heat(1);  // every access is its own epoch
  const BlockKey a{"a", 0};
  for (int i = 0; i < 40; ++i) heat.record(a);
  const BlockKey other{"b", 0};
  for (int i = 0; i < 40; ++i) heat.record(other);  // 40 epochs pass for a
  EXPECT_EQ(heat.peek(a), 0u);  // shift >= 32 clamps to zero, no UB
}

TEST(HeatTracker, ForgetDropsKeysAndArrays) {
  replication::HeatTracker heat(1024);
  heat.record({"m", 0});
  heat.record({"m", 1});
  heat.record({"v", 0});
  heat.forget({"m", 0});
  EXPECT_EQ(heat.peek({"m", 0}), 0u);
  EXPECT_EQ(heat.peek({"m", 1}), 1u);
  heat.forget_array("m");
  EXPECT_EQ(heat.peek({"m", 1}), 0u);
  EXPECT_EQ(heat.peek({"v", 0}), 1u);
}

// ---------------------------------------------------------------------------
// Rendezvous replica ranking
// ---------------------------------------------------------------------------

TEST(RankHolders, DeterministicPermutationWithoutRequester) {
  const BlockKey key{"m.blk", 7};
  const std::vector<int> holders{0, 1, 2, 3, 4};
  const auto r1 = replication::rank_holders(key, 2, holders);
  const auto r2 = replication::rank_holders(key, 2, holders);
  EXPECT_EQ(r1, r2);  // pure function of (key, requester, holders)
  EXPECT_EQ(r1.size(), 4u);
  EXPECT_TRUE(std::find(r1.begin(), r1.end(), 2) == r1.end());
  auto sorted = r1;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 3, 4}));
}

TEST(RankHolders, SpreadsRequestersAcrossHolders) {
  const std::vector<int> holders{0, 1, 2, 3};
  std::set<int> first_choices;
  for (int requester = 100; requester < 116; ++requester) {
    first_choices.insert(replication::rank_holders({"m", 3}, requester, holders)[0]);
  }
  // 16 requesters should not all pile onto one holder.
  EXPECT_GT(first_choices.size(), 1u);
}

// ---------------------------------------------------------------------------
// The one retention rule on a real node
// ---------------------------------------------------------------------------

StorageConfig small_config(const testutil::TempDir& dir) {
  StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 16 * 4096;
  cfg.default_block_size = 4096;
  cfg.io_workers = 2;
  return cfg;
}

void import_array(StorageNode& node, const std::string& name, std::uint64_t bytes,
                  std::uint64_t fill) {
  const std::string path = node.scratch_dir() + "/" + name + ".src";
  std::vector<std::uint64_t> vals(bytes / 8, fill);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(vals.data()), static_cast<std::streamsize>(bytes));
  }
  node.import_file(name, path, 4096);
}

struct RetentionCase {
  const char* name;
  const char* replication;  ///< DOOC_REPLICATION spec
  bool from_peer;           ///< the block is homed on the other node
  int reads;                ///< reads of the block before the scan
  bool survives;            ///< resident after the scan
};

// Print the case by name: the default byte dump of the struct holds
// pointers, which would change the test's listed name from run to run.
void PrintTo(const RetentionCase& c, std::ostream* os) { *os << c.name; }

class RetentionRule : public ::testing::TestWithParam<RetentionCase> {};

// One block is read into node 1, then a one-pass stream of 32 cold blocks
// passes through its 16-block budget. The cold blocks are written and
// flushed on node 1, never fetched, so the catalog never counts them and
// they stay cold even at hot_threshold=1. Only a block the catalog marked
// hot outlives the stream; anything else goes in plain LRU order, however
// often it was read.
TEST_P(RetentionRule, ColdScan) {
  const RetentionCase c = GetParam();
  testutil::TempDir dir(std::string("retain_") + c.name);
  StorageConfig cfg = small_config(dir);
  cfg.replication = ReplicationConfig::parse(c.replication);
  StorageCluster cluster(2, cfg);
  auto& node = cluster.node(1);

  import_array(cluster.node(c.from_peer ? 0 : 1), "block", 4096, 7);
  for (int r = 0; r < c.reads; ++r) {
    EXPECT_EQ(node.request_read({"block", 0, 4096}).get().as<std::uint64_t>()[0], 7u);
  }
  EXPECT_EQ(node.stats().disk_reads + node.stats().remote_fetches, 1u)
      << "later reads must be cache hits";

  for (int i = 0; i < 32; ++i) {
    const std::string name = "cold" + std::to_string(i);
    node.create_array(name, 4096, 4096);
    node.request_write({name, 0, 4096}).get().as<std::uint64_t>()[0] = 1;
    node.flush_array(name);
  }

  EXPECT_EQ(node.is_resident({"block", 0, 4096}), c.survives);
  EXPECT_TRUE(node.is_resident({"cold31", 0, 4096})) << "the newest block is never the victim";
  EXPECT_FALSE(node.is_resident({"cold0", 0, 4096})) << "the oldest cold block goes first";
  EXPECT_GE(node.stats().evictions, 16u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RetentionRule,
    ::testing::Values(
        // Fetched once from its home peer: the catalog marks it hot.
        RetentionCase{"HotFromPeerSurvives", "on,hot_threshold=1", true, 1, true},
        RetentionCase{"OffScanEvictsIt", "off", true, 1, false},
        // Local re-reads earn no protection: there is no promotion on a hit.
        RetentionCase{"OffReadTwiceIsPlainLru", "off", false, 2, false},
        RetentionCase{"ColdReadTwiceIsPlainLru", "on", false, 2, false}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// End-to-end replica flow
// ---------------------------------------------------------------------------

TEST(Replication, HotDurableBlockServesReadersFromPeerMemory) {
  testutil::TempDir dir("flow");
  StorageConfig cfg = small_config(dir);
  cfg.memory_budget = 1ull << 20;
  // decay is huge so the tiny access counts in this test never halve.
  cfg.replication = ReplicationConfig::parse("on,hot_threshold=1,decay=1048576");
  StorageCluster cluster(3, cfg);

  import_array(cluster.node(0), "m", 4096, 42);
  auto r1 = cluster.node(1).request_read({"m", 0, 4096}).get();
  EXPECT_EQ(r1.as<std::uint64_t>()[0], 42u);
  auto r2 = cluster.node(2).request_read({"m", 0, 4096}).get();
  EXPECT_EQ(r2.as<std::uint64_t>()[0], 42u);

  const StorageStats total = cluster.total_stats();
  EXPECT_GE(total.replica_promotions, 1u) << "threshold=1 promotes on first fetch";
  EXPECT_GE(total.replica_hits, 1u)
      << "the second reader must be served from a peer's in-memory replica";
}

TEST(Replication, OffKeepsCountersAtZero) {
  testutil::TempDir dir("off");
  StorageConfig cfg = small_config(dir);
  cfg.memory_budget = 1ull << 20;
  cfg.replication = ReplicationConfig{};  // explicit off beats any env var
  StorageCluster cluster(2, cfg);
  import_array(cluster.node(0), "m", 4096, 5);
  (void)cluster.node(1).request_read({"m", 0, 4096}).get();
  const StorageStats total = cluster.total_stats();
  EXPECT_EQ(total.replica_hits, 0u);
  EXPECT_EQ(total.replica_promotions, 0u);
}

// ---------------------------------------------------------------------------
// Write-once coherence: resurrection must invalidate every replica
// ---------------------------------------------------------------------------

TEST(Replication, ResurrectionInvalidatesReplicasEverywhere) {
  testutil::TempDir dir("resur");
  StorageConfig cfg = small_config(dir);
  cfg.memory_budget = 1ull << 20;
  cfg.replication = ReplicationConfig::parse("on,hot_threshold=1,decay=1048576");
  StorageCluster cluster(2, cfg);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  n0.create_array("x", 64, 64);
  {
    auto w = n0.request_write({"x", 0, 64}).get();
    w.as<double>()[0] = 1.5;
    w.release();
  }
  // Reader on node 1 pulls a replica of the pre-fault bytes.
  EXPECT_DOUBLE_EQ(n1.request_read({"x", 0, 64}).get().as<double>()[0], 1.5);

  // Resurrection path: drop every copy cluster-wide and reset the block to
  // unwritten, exactly what ExecutorCore does before re-running a producer.
  ASSERT_TRUE(cluster.forget_block({"x", 0}));

  {
    auto w = n0.request_write({"x", 0, 64}).get();
    w.as<double>()[0] = 9.25;
    w.release();
  }
  // The reader must see the re-produced bytes — a stale replica serving
  // 1.5 here is precisely the coherence bug this path guards against.
  EXPECT_DOUBLE_EQ(n1.request_read({"x", 0, 64}).get().as<double>()[0], 9.25);
}

}  // namespace
}  // namespace dooc::storage
