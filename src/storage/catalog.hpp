// The partitioned global mapping of the storage layer.
//
// "The global mapping (of which data is stored where) is not replicated on
// each node but instead partitioned" (paper §III-B). Every array has one
// *authority shard* — the catalog partition living on node
// hash(name) mod N — which records the array's metadata, which node's
// scratch file holds each durable block, and which nodes currently hold a
// sealed in-memory copy. Peers that miss locally consult the authority
// (HashOwner protocol) or walk random peers until one knows (RandomWalk,
// the protocol the paper describes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "storage/replication.hpp"
#include "storage/types.hpp"

namespace dooc::storage {

/// Metadata for one array. Immutable once registered.
struct ArrayMeta {
  ArrayName name;
  std::uint64_t size = 0;        ///< total bytes
  std::uint64_t block_size = 0;  ///< bytes per block (last block may be short)
  int home_node = 0;             ///< node whose scratch file backs this array
  std::string path;              ///< backing file path at the home node

  [[nodiscard]] std::uint64_t num_blocks() const noexcept {
    return block_size == 0 ? 0 : (size + block_size - 1) / block_size;
  }
  [[nodiscard]] std::uint64_t block_bytes(std::uint64_t block) const noexcept {
    const std::uint64_t begin = block * block_size;
    return begin >= size ? 0 : std::min(block_size, size - begin);
  }
};

/// What the authority knows about one block.
struct BlockInfo {
  bool durable = false;       ///< on disk in the home node's scratch file
  std::vector<int> holders;   ///< nodes with a sealed in-memory copy
};

/// One catalog partition. Thread-safe; callbacks registered via
/// await_block() are invoked *outside* the shard lock.
class CatalogShard {
 public:
  using BlockCallback = std::function<void(const BlockKey&)>;

  /// Register a new array. `all_durable` marks every block as already on
  /// disk (imported/scanned files) as opposed to none (fresh arrays).
  /// Non-authoritative registrations ("aliases", kept at the home node so
  /// the RandomWalk protocol can find arrays there too) carry metadata only
  /// and never answer block_info queries.
  void register_array(ArrayMeta meta, bool all_durable, bool authoritative = true);

  void unregister_array(const ArrayName& name);

  [[nodiscard]] std::optional<ArrayMeta> find(const ArrayName& name) const;
  [[nodiscard]] std::vector<ArrayName> list() const;

  /// Record that `node` holds a sealed in-memory copy of the block.
  /// Fires any await_block() callbacks registered for it.
  void note_holder(const BlockKey& key, int node);
  /// The copy on `node` went away (eviction or shutdown).
  void drop_holder(const BlockKey& key, int node);
  /// The block is now on disk at the home node. Fires awaiters.
  void note_durable(const BlockKey& key);
  /// Lost-block recovery: erase everything known about the block — holders
  /// and the durable bit — so a resurrected producer may rewrite it. The
  /// next await_block() parks until the re-run seals it again.
  void reset_block(const BlockKey& key);

  [[nodiscard]] BlockInfo block_info(const BlockKey& key) const;

  /// Record one fetch of the block in the authority's decayed frequency
  /// counters and return the block's heat and whether it is (newly) hot.
  /// Only called by nodes with replication enabled; the shard lazily
  /// creates its tracker from `cfg.decay` (cluster-wide config, so every
  /// caller agrees).
  replication::AccessDecision record_fetch(const BlockKey& key, const ReplicationConfig& cfg);
  /// Current decayed heat of a block (introspection/tests).
  [[nodiscard]] std::uint32_t heat_of(const BlockKey& key) const;

  /// Register interest in a block that no one has produced yet. The
  /// callback fires (once) as soon as a holder appears or the block turns
  /// durable. If the block is already obtainable the callback fires
  /// immediately from the calling thread.
  void await_block(const BlockKey& key, BlockCallback cb);

 private:
  struct ArrayEntry {
    ArrayMeta meta;
    std::vector<bool> durable;                    // per block
    std::map<std::uint64_t, std::set<int>> holders;  // block -> nodes
  };

  [[nodiscard]] bool obtainable_locked(const ArrayEntry& e, std::uint64_t block) const;

  mutable std::mutex mutex_;
  std::map<ArrayName, ArrayEntry> arrays_;
  std::map<BlockKey, std::vector<BlockCallback>> awaiters_;
  /// Decayed access-frequency counters for replication (lazily created on
  /// the first record_fetch; null while replication is off everywhere).
  std::unique_ptr<replication::HeatTracker> heat_;
};

/// Routes catalog operations to the right shard and implements the two
/// lookup protocols. Shards are owned by the StorageCluster (one per node);
/// DistributedCatalog is a thin, shared view.
class DistributedCatalog {
 public:
  DistributedCatalog(std::vector<CatalogShard*> shards) : shards_(std::move(shards)) {}

  [[nodiscard]] int authority_of(const ArrayName& name) const noexcept {
    return static_cast<int>(std::hash<std::string>()(name) % shards_.size());
  }

  [[nodiscard]] CatalogShard& shard_for(const ArrayName& name) const {
    return *shards_[static_cast<std::size_t>(authority_of(name))];
  }

  [[nodiscard]] int num_shards() const noexcept { return static_cast<int>(shards_.size()); }
  [[nodiscard]] CatalogShard& shard(int node) const { return *shards_[static_cast<std::size_t>(node)]; }

  /// Find array metadata using the given protocol, starting from
  /// `from_node`. Returns the metadata plus the number of peer queries
  /// ("hops") the lookup needed; nullopt if no node knows the array.
  struct LookupResult {
    std::optional<ArrayMeta> meta;
    int hops = 0;
  };
  [[nodiscard]] LookupResult lookup(const ArrayName& name, int from_node,
                                    LookupProtocol protocol, std::uint64_t* rng_state) const;

 private:
  std::vector<CatalogShard*> shards_;
};

}  // namespace dooc::storage
