#include <gtest/gtest.h>

#include <fstream>
#include <future>

#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc::storage {
namespace {

StorageConfig base_config(const testutil::TempDir& dir) {
  StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 1ull << 20;
  cfg.default_block_size = 4096;
  cfg.io_workers = 2;
  return cfg;
}

TEST(Storage, WriteSealRead) {
  testutil::TempDir dir("wsr");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 64, 64);

  auto w = node.request_write({"v", 0, 64}).get();
  auto span = w.as<double>();
  for (std::size_t i = 0; i < span.size(); ++i) span[i] = static_cast<double>(i);
  w.release();  // seals the block

  auto r = node.request_read({"v", 0, 64}).get();
  auto rs = r.as<double>();
  for (std::size_t i = 0; i < rs.size(); ++i) EXPECT_DOUBLE_EQ(rs[i], static_cast<double>(i));
}

TEST(Storage, ReadBlocksUntilSealed) {
  testutil::TempDir dir("seal");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 16, 16);

  auto w = node.request_write({"v", 0, 16}).get();
  auto read_future = node.request_read({"v", 0, 16});
  EXPECT_EQ(read_future.wait_for(std::chrono::milliseconds(30)), std::future_status::timeout)
      << "read resolved before the writer sealed the block";
  w.as<std::uint64_t>()[0] = 77;
  w.release();
  auto r = read_future.get();
  EXPECT_EQ(r.as<std::uint64_t>()[0], 77u);
}

TEST(Storage, DoubleWriteSameBlockThrows) {
  testutil::TempDir dir("dw");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 16, 16);
  auto w = node.request_write({"v", 0, 16}).get();
  w.release();
  EXPECT_THROW(node.request_write({"v", 0, 16}), ImmutabilityViolation);
}

TEST(Storage, OverlappingUnsealedWritesThrow) {
  testutil::TempDir dir("ow");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 64, 64);
  auto w1 = node.request_write({"v", 0, 32}).get();
  EXPECT_THROW(node.request_write({"v", 16, 32}), ImmutabilityViolation);
  // Disjoint co-writes of the same block are allowed...
  auto w2 = node.request_write({"v", 32, 32}).get();
  // ...and the block seals only after BOTH release.
  auto rf = node.request_read({"v", 0, 64});
  w1.release();
  EXPECT_EQ(rf.wait_for(std::chrono::milliseconds(20)), std::future_status::timeout);
  w2.release();
  rf.get();
}

TEST(Storage, IntervalMustStayWithinOneBlock) {
  testutil::TempDir dir("iv");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 256, 64);
  EXPECT_THROW(node.request_read({"v", 32, 64}), InvalidArgument);   // straddles blocks 0/1
  EXPECT_THROW(node.request_read({"v", 0, 512}), InvalidArgument);   // beyond the array
  EXPECT_THROW(node.request_read({"v", 0, 0}), InvalidArgument);     // empty
  EXPECT_THROW(node.request_read({"ghost", 0, 8}), InvalidArgument); // unknown array
}

TEST(Storage, ImportedFileReadsBack) {
  testutil::TempDir dir("imp");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  const std::string path = node.scratch_dir() + "/payload";
  std::vector<std::uint64_t> data(512);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * i;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size() * 8));
  }
  node.import_file("payload", path, 1024);

  // Read an interval from the middle of block 2.
  auto r = node.request_read({"payload", 2048 + 64, 256}).get();
  auto span = r.as<std::uint64_t>();
  for (std::size_t i = 0; i < span.size(); ++i) {
    EXPECT_EQ(span[i], (256 + 8 + i) * (256 + 8 + i));
  }
  EXPECT_GE(node.stats().disk_reads, 1u);
}

TEST(Storage, ScanScratchRegistersExistingFiles) {
  testutil::TempDir dir("scan");
  // Pre-create files in the directory the node will adopt.
  const std::string node_dir = dir.str() + "/node0";
  std::filesystem::create_directories(node_dir);
  for (const char* name : {"alpha", "beta"}) {
    std::ofstream out(node_dir + "/" + name, std::ios::binary);
    std::vector<char> junk(128, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  EXPECT_EQ(node.scan_scratch(), 2u);
  EXPECT_TRUE(node.array_meta("alpha").has_value());
  EXPECT_EQ(node.array_meta("beta")->size, 128u);
  auto r = node.request_read({"alpha", 0, 128}).get();
  EXPECT_EQ(static_cast<char>(r.bytes()[0]), 'x');
}

TEST(Storage, EvictionUnderMemoryPressure) {
  testutil::TempDir dir("evict");
  StorageConfig cfg = base_config(dir);
  cfg.memory_budget = 4096;  // room for exactly one 4 KiB block
  StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);

  const std::string path = node.scratch_dir() + "/big";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> junk(4096 * 4, 'y');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  node.import_file("big", path, 4096);

  for (std::uint64_t b = 0; b < 4; ++b) {
    auto r = node.request_read({"big", b * 4096, 4096}).get();
    EXPECT_EQ(static_cast<char>(r.bytes()[0]), 'y');
  }
  EXPECT_GE(node.stats().evictions, 3u);
  EXPECT_LE(node.resident_bytes(), 4096u);
}

TEST(Storage, PinnedBlocksAreNotEvicted) {
  testutil::TempDir dir("pin");
  StorageConfig cfg = base_config(dir);
  cfg.memory_budget = 4096;
  StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  const std::string path = node.scratch_dir() + "/big";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> junk(4096 * 3, 'z');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  node.import_file("big", path, 4096);

  auto pinned = node.request_read({"big", 0, 4096}).get();
  auto r1 = node.request_read({"big", 4096, 4096}).get();
  r1.release();
  auto r2 = node.request_read({"big", 8192, 4096}).get();
  r2.release();
  // The pinned block must still be readable without a disk reload.
  EXPECT_TRUE(node.is_resident({"big", 0, 4096}));
  EXPECT_EQ(static_cast<char>(pinned.bytes()[0]), 'z');
}

TEST(Storage, DirtyBlocksSurviveMemoryPressureUntilFlushed) {
  testutil::TempDir dir("dirty");
  StorageConfig cfg = base_config(dir);
  cfg.memory_budget = 64;  // absurdly small: everything overshoots
  StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  node.create_array("out", 256, 64);
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto w = node.request_write({"out", b * 64, 64}).get();
    w.as<std::uint64_t>()[0] = b;
    w.release();
  }
  // Nothing was flushable, so nothing may have been evicted.
  EXPECT_EQ(node.stats().evictions, 0u);
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto r = node.request_read({"out", b * 64, 64}).get();
    EXPECT_EQ(r.as<std::uint64_t>()[0], b);
  }
}

TEST(Storage, FlushMakesBlocksDurableAndEvictable) {
  testutil::TempDir dir("flush");
  StorageConfig cfg = base_config(dir);
  cfg.memory_budget = 128;
  StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  node.create_array("out", 512, 128);
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto w = node.request_write({"out", b * 128, 128}).get();
    w.as<std::uint64_t>()[0] = 100 + b;
    w.release();
  }
  node.flush_array("out");
  EXPECT_GE(node.stats().disk_writes, 4u);

  // Trigger eviction by loading something else; flushed blocks may now go.
  const std::string path = node.scratch_dir() + "/other";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> junk(128, 'q');
    out.write(junk.data(), 128);
  }
  node.import_file("other", path, 128);
  auto r = node.request_read({"other", 0, 128}).get();
  r.release();
  EXPECT_GE(node.stats().evictions, 1u);

  // Evicted flushed blocks reload from the scratch file with their data.
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto rb = node.request_read({"out", b * 128, 128}).get();
    EXPECT_EQ(rb.as<std::uint64_t>()[0], 100 + b);
  }
}

TEST(Storage, RemoteFetchFromPeerMemory) {
  testutil::TempDir dir("remote");
  StorageCluster cluster(2, base_config(dir));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  n0.create_array("shared", 64, 64);
  auto w = n0.request_write({"shared", 0, 64}).get();
  w.as<double>()[0] = 2.5;
  w.release();

  auto r = n1.request_read({"shared", 0, 64}).get();
  EXPECT_DOUBLE_EQ(r.as<double>()[0], 2.5);
  EXPECT_GE(n1.stats().remote_fetches, 1u);
  EXPECT_GE(n1.stats().remote_fetch_bytes, 64u);
  // The copy is now resident on node 1 too.
  EXPECT_TRUE(n1.is_resident({"shared", 0, 64}));
}

TEST(Storage, RemoteFlushCountsBytesShippedHome) {
  testutil::TempDir dir("remoteflush");
  StorageCluster cluster(2, base_config(dir));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  // Node 1 produces one block of an array homed on node 0.
  n0.create_array("out", 128, 64);
  auto w = n1.request_write({"out", 64, 64}).get();
  w.as<std::uint64_t>()[0] = 77;
  w.release();

  n1.flush_array("out");
  EXPECT_EQ(n1.stats().remote_flush_bytes, 64u);
  EXPECT_EQ(n0.stats().remote_flush_bytes, 0u);
  EXPECT_EQ(cluster.total_stats().remote_flush_bytes, 64u);
  EXPECT_GE(n0.stats().disk_writes, 1u) << "the home node writes the shipped block";

  // Flushing again ships nothing: the block is durable now.
  n1.flush_array("out");
  EXPECT_EQ(n1.stats().remote_flush_bytes, 64u);
}

TEST(Storage, RemoteReadOfDurableArrayStreamsFromHomeDisk) {
  testutil::TempDir dir("homefetch");
  StorageCluster cluster(2, base_config(dir));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  const std::string path = n0.scratch_dir() + "/data";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<std::uint64_t> vals(16, 31337);
    out.write(reinterpret_cast<const char*>(vals.data()), 128);
  }
  n0.import_file("data", path, 128);

  auto r = n1.request_read({"data", 0, 128}).get();
  EXPECT_EQ(r.as<std::uint64_t>()[5], 31337u);
  EXPECT_GE(n0.stats().disk_reads, 1u) << "home node should have served from disk";
  EXPECT_GE(n1.stats().remote_fetches, 1u);
}

TEST(Storage, CrossNodeReadWaitsForRemoteProducer) {
  testutil::TempDir dir("await");
  StorageCluster cluster(2, base_config(dir));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  n0.create_array("late", 32, 32);

  // Consumer on node 1 asks before the producer on node 0 has written.
  auto rf = n1.request_read({"late", 0, 32});
  EXPECT_EQ(rf.wait_for(std::chrono::milliseconds(30)), std::future_status::timeout);

  auto w = n0.request_write({"late", 0, 32}).get();
  w.as<std::uint64_t>()[0] = 4242;
  w.release();

  EXPECT_EQ(rf.get().as<std::uint64_t>()[0], 4242u);
}

TEST(Storage, PrefetchWarmsTheCache) {
  testutil::TempDir dir("prefetch");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  const std::string path = node.scratch_dir() + "/data";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> junk(8192, 'p');
    out.write(junk.data(), 8192);
  }
  node.import_file("data", path, 4096);
  EXPECT_FALSE(node.is_resident({"data", 0, 4096}));
  node.prefetch({"data", 0, 4096});
  // Wait for the asynchronous load to land.
  for (int spin = 0; spin < 200 && !node.is_resident({"data", 0, 4096}); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(node.is_resident({"data", 0, 4096}));
  EXPECT_EQ(node.stats().prefetch_requests, 1u);
}

TEST(Storage, ResidencyBitmapTracksBlocks) {
  testutil::TempDir dir("resmap");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 300, 100);  // 3 blocks (last short)
  auto w = node.request_write({"v", 100, 100}).get();
  w.release();
  const auto map = node.residency("v");
  ASSERT_EQ(map.size(), 3u);
  EXPECT_FALSE(map[0]);
  EXPECT_TRUE(map[1]);
  EXPECT_FALSE(map[2]);
}

TEST(Storage, DeleteArrayRemovesEverywhere) {
  testutil::TempDir dir("del");
  StorageCluster cluster(2, base_config(dir));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  n0.create_array("temp", 64, 64);
  auto w = n0.request_write({"temp", 0, 64}).get();
  w.release();
  auto r = n1.request_read({"temp", 0, 64}).get();
  r.release();

  n0.delete_array("temp");
  EXPECT_THROW(n0.request_read({"temp", 0, 64}), InvalidArgument);
  // Recreating under the same name must work (stale state would throw).
  n0.create_array("temp", 64, 64);
  auto w2 = n0.request_write({"temp", 0, 64}).get();
  w2.release();
}

TEST(Storage, RandomWalkLookupFindsRemoteArrays) {
  testutil::TempDir dir("walk");
  StorageConfig cfg = base_config(dir);
  cfg.lookup = LookupProtocol::RandomWalk;
  StorageCluster cluster(4, cfg);
  cluster.node(2).create_array("needle", 32, 32);
  auto w = cluster.node(2).request_write({"needle", 0, 32}).get();
  w.as<std::uint64_t>()[0] = 1;
  w.release();

  auto r = cluster.node(0).request_read({"needle", 0, 32}).get();
  EXPECT_EQ(r.as<std::uint64_t>()[0], 1u);
}

TEST(Storage, LastShortBlockHasCorrectSize) {
  testutil::TempDir dir("short");
  StorageCluster cluster(1, base_config(dir));
  auto& node = cluster.node(0);
  node.create_array("v", 150, 100);  // blocks: 100 + 50
  auto w = node.request_write({"v", 100, 50}).get();
  EXPECT_EQ(w.bytes().size(), 50u);
  w.release();
  auto r = node.request_read({"v", 100, 50}).get();
  EXPECT_EQ(r.bytes().size(), 50u);
  // Reading past the short block is rejected.
  EXPECT_THROW(node.request_read({"v", 100, 100}), InvalidArgument);
}

TEST(Storage, ConcurrentReadsOfOneBlockStartOneFetch) {
  testutil::TempDir dir("dedup");
  StorageConfig cfg = base_config(dir);
  cfg.throttle_read_bw = 256.0 * 1024;  // ~0.25 s per 64 KB load
  StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);

  const std::string path = dir.str() + "/node0/payload";
  std::filesystem::create_directories(dir.str() + "/node0");
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> data(64 * 1024, 'd');
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  node.import_file("m", path, 64 * 1024);

  auto& started = obs::Metrics::instance().counter("storage.fetch_started", 0);
  auto& deduped = obs::Metrics::instance().counter("storage.fetch_deduped", 0);
  const std::uint64_t started_before = started.get();
  const std::uint64_t deduped_before = deduped.get();

  // Four readers plus a prefetch pile onto the same Loading block while the
  // throttled disk read is still in flight.
  std::vector<std::future<ReadHandle>> reads;
  for (int i = 0; i < 4; ++i) reads.push_back(node.request_read({"m", 0, 1024}));
  node.prefetch({"m", 0, 1024});
  for (auto& f : reads) {
    auto r = f.get();
    EXPECT_EQ(r.bytes()[0], std::byte{'d'});
  }

  EXPECT_EQ(started.get() - started_before, 1u)
      << "concurrent reads of one block must share a single in-flight fetch";
  EXPECT_GE(deduped.get() - deduped_before, 4u);
  EXPECT_EQ(node.stats().disk_reads, 1u);
  EXPECT_EQ(node.inflight_load_bytes(), 0u);
}

TEST(Storage, InflightBudgetDefersLoadsButAllComplete) {
  testutil::TempDir dir("budget");
  StorageConfig cfg = base_config(dir);
  cfg.memory_budget = 8ull << 20;
  cfg.max_inflight_load_bytes = 64 * 1024;  // one block in flight at a time
  // Slow every disk read by 5ms so the issue loop below always outpaces the
  // I/O worker; without this the 64KB reads can complete faster than the
  // main thread issues them and the budget is never contended.
  cfg.fault_plan =
      std::make_shared<fault::FaultPlan>(fault::FaultPlan::parse("latency=1.0:5ms"));
  StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);

  const std::string path = dir.str() + "/node0/payload";
  std::filesystem::create_directories(dir.str() + "/node0");
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> data(8 * 64 * 1024, 'b');
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  node.import_file("m", path, 64 * 1024);

  auto& deferred = obs::Metrics::instance().counter("storage.fetch_deferred", 0);
  const std::uint64_t deferred_before = deferred.get();

  std::vector<std::future<ReadHandle>> reads;
  for (int b = 0; b < 8; ++b) {
    reads.push_back(node.request_read({"m", static_cast<std::uint64_t>(b) * 64 * 1024, 1024}));
  }
  for (auto& f : reads) {
    auto r = f.get();
    EXPECT_EQ(r.bytes()[0], std::byte{'b'});
  }

  EXPECT_GE(deferred.get() - deferred_before, 1u)
      << "a one-block budget must defer at least one of eight demand loads";
  EXPECT_EQ(node.inflight_load_bytes(), 0u);
}

TEST(Storage, TeardownWithRemoteFetchesInFlightIsClean) {
  // Node 1's and node 2's fetchers stream node 0's blocks (from its memory
  // and from its disk) while the cluster is destroyed. ~StorageCluster must
  // quiesce every node's fetchers before destroying any node; otherwise a
  // fetcher is still inside node 0's fetch_block when node 0 goes away
  // (a use-after-free that the address-sanitizer build reports).
  constexpr std::uint64_t kBlock = 16 * 1024;
  constexpr std::uint64_t kBlocks = 32;
  for (int round = 0; round < 20; ++round) {
    testutil::TempDir dir("teardown");
    StorageConfig cfg = base_config(dir);
    cfg.memory_budget = 8ull << 20;
    StorageCluster cluster(3, cfg);
    auto& home = cluster.node(0);
    for (const char* name : {"mem", "disk"}) {
      home.create_array(name, kBlock * kBlocks, kBlock);
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        auto w = home.request_write({name, b * kBlock, kBlock}).get();
        w.as<std::uint64_t>()[0] = b;
      }
    }
    home.flush_array("disk");
    auto first = cluster.node(1).request_read({"mem", 0, kBlock}).get();
    EXPECT_EQ(first.as<std::uint64_t>()[0], 0u);
    first.release();
    for (int reader = 1; reader < 3; ++reader) {
      for (std::uint64_t b = 1; b < kBlocks; ++b) {
        cluster.node(reader).prefetch({"mem", b * kBlock, kBlock});
        cluster.node(reader).prefetch({"disk", b * kBlock, kBlock});
      }
    }
  }
}

}  // namespace
}  // namespace dooc::storage
