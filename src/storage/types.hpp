// Common vocabulary of the DOoC distributed storage layer.
//
// The storage subsystem (paper §III-B) exposes data as named, immutable,
// one-dimensional byte arrays structured in blocks. Filters request *read*
// or *write* access to an *interval* of an array; an interval must lie
// within a single block ("if one needs to access data that span across
// multiple blocks, it is required to use one interval per block").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/fair_share.hpp"
#include "spmv/codec.hpp"

namespace dooc::fault {
class FaultPlan;
}  // namespace dooc::fault

namespace dooc::storage {

using ArrayName = std::string;

/// Identifies one block of one array.
struct BlockKey {
  ArrayName array;
  std::uint64_t block = 0;

  friend bool operator==(const BlockKey&, const BlockKey&) = default;
  friend auto operator<=>(const BlockKey&, const BlockKey&) = default;
};

/// A byte range of an array. Must not straddle a block boundary.
struct Interval {
  ArrayName array;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::uint64_t end() const noexcept { return offset + length; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// How a node finds data it does not hold (paper: the global mapping is
/// partitioned, not replicated; a missing interval is asked from another
/// node).
enum class LookupProtocol {
  /// Ask the deterministic authority node, hash(array) mod N.
  HashOwner,
  /// Ask randomly selected peers until one knows, tracking visited nodes —
  /// the protocol described in the paper.
  RandomWalk,
};

/// Which reclaimable resident block to evict first when the memory budget
/// is exceeded. The paper uses LRU. TwoQ is the frequency-aware policy the
/// replication layer runs: blocks start probationary and are evicted
/// LRU-first; re-referenced or catalog-hot blocks sit in a protected
/// segment that only yields a victim when no probationary block is left —
/// so a one-pass scan cannot thrash the hot set.
enum class EvictionPolicy { Lru, TwoQ };

/// Policy knobs for hot-block dynamic replication (see
/// storage/replication.hpp for the mechanism: decayed frequency counters
/// at the authority shard, rendezvous replica selection, 2Q retention).
struct ReplicationConfig {
  bool enabled = false;
  /// Decayed accesses at the authority before a block counts as hot.
  std::uint32_t hot_threshold = 4;
  /// Cap on catalog-listed in-memory copies of a *durable* block. Fetches
  /// past the cap install transient (evict-first, unlisted). Soft under
  /// concurrency: racing fetchers may briefly overshoot by one.
  int max_replicas = 3;
  /// Heat half-life in recorded accesses (see replication::HeatTracker).
  std::uint32_t decay = 64;
  /// Local 2Q promotion point: cache hits after install before a block
  /// moves from the probationary to the protected segment. Not part of the
  /// env grammar — a policy constant, overridable programmatically.
  std::uint32_t promote_hits = 1;

  /// `DOOC_REPLICATION=on,hot_threshold=4,max_replicas=3,decay=64`; a
  /// spec with keys only stays off. Throws InvalidArgument on a bad spec.
  static ReplicationConfig parse(const std::string& spec);
  /// Parse $DOOC_REPLICATION, or all-defaults (off) when unset.
  static ReplicationConfig from_env();
};

struct StorageConfig {
  /// Root scratch directory; each node uses `<scratch_root>/node<i>/`.
  std::string scratch_root;
  /// Per-node DRAM budget for resident blocks, in bytes.
  std::uint64_t memory_budget = 256ull << 20;
  /// Default block size for arrays created without an explicit one and for
  /// files discovered by the startup scan.
  std::uint64_t default_block_size = 1ull << 20;
  /// Number of asynchronous I/O filters per node ("as many I/O filters as
  /// is necessary to efficiently use the parallelism of the I/O subsystem").
  int io_workers = 1;
  EvictionPolicy eviction = EvictionPolicy::Lru;
  LookupProtocol lookup = LookupProtocol::HashOwner;
  /// Optional read-bandwidth throttle (bytes/s, 0 = off). Lets local
  /// experiments emulate a slow device so I/O/compute overlap is visible.
  double throttle_read_bw = 0.0;
  /// Bound on the bytes of block loads/fetches in flight at once (0 = no
  /// bound). Demand reads and prefetches share this budget: excess fetches
  /// queue up (demand ahead of prefetch) and start as in-flight loads land,
  /// so an eager prefetch window cannot flood memory or the I/O filters.
  /// A single block larger than the budget is still allowed to fly alone.
  std::uint64_t max_inflight_load_bytes = 0;
  /// Fair-share arbitration of max_inflight_load_bytes across tenants
  /// (jobs): WDRR quantum, per-tenant share cap, aging override. The
  /// budget_bytes field is ignored — max_inflight_load_bytes is the
  /// budget. With a single tenant the arbitration degenerates to the
  /// legacy FIFO deferral exactly.
  FairShareConfig fair_share;
  /// Seed for the random-walk lookup (LookupProtocol::RandomWalk).
  std::uint64_t seed = 0x5eed;
  /// Shared fault-injection plan (cluster state — every node of a cluster
  /// points at the same plan). Null = no injection, no retries: the I/O
  /// filters surface the first error, exactly the pre-fault behaviour.
  /// StorageCluster fills this from DOOC_FAULTS when left null.
  std::shared_ptr<fault::FaultPlan> fault_plan;
  /// Block codec policy: per-block compression of matrix payloads on the
  /// durable/wire path, O_DIRECT block reads, and read-ahead depth.
  /// Programmatic config wins; StorageCluster resolves nullopt once from
  /// DOOC_CODEC (mirrors fault_plan) and hands every node the result.
  /// Decoding of codec frames is always on regardless of mode, so
  /// mixed-configuration clusters interoperate.
  std::optional<spmv::codec::CodecConfig> codec;
  /// Hot-block dynamic replication policy. Programmatic config wins;
  /// StorageCluster resolves nullopt once from DOOC_REPLICATION (mirrors
  /// fault_plan/codec), so every node agrees. When replication
  /// is enabled and `eviction` was left at the Lru default, the node
  /// upgrades itself to TwoQ so replicas survive one-pass scans.
  std::optional<ReplicationConfig> replication;
};

/// Monotonic counters kept by each storage node. All cheap relaxed atomics.
struct StorageStats {
  std::uint64_t disk_reads = 0;        ///< block loads from the scratch file
  std::uint64_t disk_read_bytes = 0;
  std::uint64_t disk_writes = 0;       ///< block stores to the scratch file
  std::uint64_t disk_write_bytes = 0;
  std::uint64_t remote_fetches = 0;    ///< blocks fetched from a peer node
  std::uint64_t remote_fetch_bytes = 0;
  std::uint64_t remote_flush_bytes = 0;  ///< sealed blocks shipped to their home node
  std::uint64_t evictions = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t lookup_hops = 0;       ///< peer queries issued to locate data
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t prefetch_requests = 0;
  std::uint64_t decoded_blocks = 0;    ///< codec frames decoded on the fetch path
  std::uint64_t decoded_bytes = 0;     ///< raw bytes those decodes produced
  std::uint64_t replica_hits = 0;      ///< fetches served from a peer's in-memory replica
  std::uint64_t replica_misses = 0;    ///< hot-block fetches that still had to hit disk
  std::uint64_t replica_promotions = 0;  ///< blocks that crossed the hot threshold here
  std::uint64_t replica_bypass = 0;    ///< at-cap installs kept transient (unlisted)
  std::uint64_t released_bytes = 0;    ///< resident bytes dropped by forget_block
  /// Installs admitted past memory_budget because nothing was reclaimable.
  std::uint64_t budget_overshoots = 0;
  double disk_read_seconds = 0.0;      ///< time the I/O filters spent reading
  double disk_write_seconds = 0.0;
  double decode_seconds = 0.0;         ///< fetcher-thread time spent decoding
};

}  // namespace dooc::storage

template <>
struct std::hash<dooc::storage::BlockKey> {
  std::size_t operator()(const dooc::storage::BlockKey& k) const noexcept {
    return std::hash<std::string>()(k.array) * 1315423911u ^ std::hash<std::uint64_t>()(k.block);
  }
};
