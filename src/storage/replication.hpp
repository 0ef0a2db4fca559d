// Hot-block dynamic replication policy (ROADMAP item: data diffusion).
//
// The paper's global mapping is partitioned, never replicated: every
// consumer of a hot immutable block forwards to its single home node, a
// read-throughput cap that worsens as the multi-tenant runtime packs more
// jobs onto the same storage nodes. Because blocks are write-once, copies
// need no coherency protocol — any sealed copy is the block. This module
// holds the *policy* pieces, pure arithmetic shared by the real storage
// layer and the DES so both replay the same decisions deterministically:
//
//  * ReplicationConfig — the DOOC_REPLICATION grammar
//    (`on,hot_threshold=4,decay=64`);
//  * HeatTracker — decayed per-block access-frequency counters. Decay is
//    driven by the tracker's own access count (every `decay` recorded
//    accesses each counter older than the current epoch halves once per
//    elapsed epoch), never by wall-clock time, so a replayed access
//    sequence yields bitwise-identical heat;
//  * rank_holders — deterministic replica selection: rendezvous hashing
//    over (block, holder, requester) spreads a hot block's readers across
//    its replica set instead of hammering the lowest-numbered holder.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/types.hpp"

namespace dooc::storage::replication {

/// What the authority shard decided about one recorded access.
struct AccessDecision {
  std::uint32_t heat = 0;   ///< decayed access count after this access
  bool hot = false;         ///< heat >= hot_threshold
  bool newly_hot = false;   ///< this access crossed the threshold
};

/// Deterministic decayed access-frequency counters, keyed by block.
/// Not thread-safe — callers hold their own lock (the catalog shard's
/// mutex in the real engine; the DES is single-threaded).
class HeatTracker {
 public:
  explicit HeatTracker(std::uint32_t decay) : decay_(decay == 0 ? 1 : decay) {}

  /// Record one access and return the block's new decayed count.
  std::uint32_t record(const BlockKey& key);
  /// Current decayed count without recording an access.
  [[nodiscard]] std::uint32_t peek(const BlockKey& key) const;
  void forget(const BlockKey& key) { entries_.erase(key); }
  void forget_array(const ArrayName& name);
  [[nodiscard]] std::uint32_t decay() const noexcept { return decay_; }

 private:
  struct Entry {
    std::uint32_t count = 0;
    std::uint64_t epoch = 0;  ///< accesses_/decay_ when last touched
  };
  /// Halve `count` once per epoch elapsed since it was last touched.
  [[nodiscard]] static std::uint32_t decayed(const Entry& e, std::uint64_t now_epoch);

  std::uint32_t decay_;
  std::uint64_t accesses_ = 0;
  std::unordered_map<BlockKey, Entry> entries_;
};

// ReplicationConfig itself lives in storage/types.hpp (StorageConfig holds
// one by value, and this header needs BlockKey from there).

/// Order candidate holders for a fetch by rendezvous hash over
/// (block, holder, requester): a pure function, so every node computes the
/// same spread and a hot block's readers fan out across its replica set.
/// `requester` participates so different requesters prefer different
/// holders. Holders equal to `requester` are dropped.
[[nodiscard]] std::vector<int> rank_holders(const BlockKey& key, int requester,
                                            std::vector<int> holders);

}  // namespace dooc::storage::replication
