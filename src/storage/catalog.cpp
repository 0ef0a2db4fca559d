#include "storage/catalog.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dooc::storage {

void CatalogShard::register_array(ArrayMeta meta, bool all_durable, bool authoritative) {
  std::lock_guard lock(mutex_);
  DOOC_REQUIRE(arrays_.count(meta.name) == 0, "array '" + meta.name + "' already exists");
  DOOC_REQUIRE(meta.block_size > 0, "array '" + meta.name + "' needs a positive block size");
  ArrayEntry entry;
  if (authoritative) entry.durable.assign(meta.num_blocks(), all_durable);
  entry.meta = std::move(meta);
  arrays_.emplace(entry.meta.name, std::move(entry));
}

void CatalogShard::unregister_array(const ArrayName& name) {
  std::lock_guard lock(mutex_);
  arrays_.erase(name);
  if (heat_ != nullptr) heat_->forget_array(name);
  // Abandon awaiters for this array: the block will never appear.
  for (auto it = awaiters_.begin(); it != awaiters_.end();) {
    if (it->first.array == name) {
      it = awaiters_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<ArrayMeta> CatalogShard::find(const ArrayName& name) const {
  std::lock_guard lock(mutex_);
  auto it = arrays_.find(name);
  if (it == arrays_.end()) return std::nullopt;
  return it->second.meta;
}

std::vector<ArrayName> CatalogShard::list() const {
  std::lock_guard lock(mutex_);
  std::vector<ArrayName> names;
  names.reserve(arrays_.size());
  for (const auto& [name, entry] : arrays_) names.push_back(name);
  return names;
}

bool CatalogShard::obtainable_locked(const ArrayEntry& e, std::uint64_t block) const {
  if (block < e.durable.size() && e.durable[block]) return true;
  auto it = e.holders.find(block);
  return it != e.holders.end() && !it->second.empty();
}

void CatalogShard::note_holder(const BlockKey& key, int node) {
  std::vector<BlockCallback> fire;
  {
    std::lock_guard lock(mutex_);
    auto it = arrays_.find(key.array);
    if (it == arrays_.end()) return;  // array deleted concurrently
    it->second.holders[key.block].insert(node);
    auto aw = awaiters_.find(key);
    if (aw != awaiters_.end()) {
      fire = std::move(aw->second);
      awaiters_.erase(aw);
    }
  }
  for (auto& cb : fire) cb(key);
}

void CatalogShard::drop_holder(const BlockKey& key, int node) {
  std::lock_guard lock(mutex_);
  auto it = arrays_.find(key.array);
  if (it == arrays_.end()) return;
  auto h = it->second.holders.find(key.block);
  if (h == it->second.holders.end()) return;
  h->second.erase(node);
  if (h->second.empty()) it->second.holders.erase(h);
}

void CatalogShard::note_durable(const BlockKey& key) {
  std::vector<BlockCallback> fire;
  {
    std::lock_guard lock(mutex_);
    auto it = arrays_.find(key.array);
    if (it == arrays_.end()) return;
    auto& durable = it->second.durable;
    if (key.block < durable.size()) durable[key.block] = true;
    auto aw = awaiters_.find(key);
    if (aw != awaiters_.end()) {
      fire = std::move(aw->second);
      awaiters_.erase(aw);
    }
  }
  for (auto& cb : fire) cb(key);
}

void CatalogShard::reset_block(const BlockKey& key) {
  std::lock_guard lock(mutex_);
  auto it = arrays_.find(key.array);
  if (it == arrays_.end()) return;
  it->second.holders.erase(key.block);
  if (key.block < it->second.durable.size()) it->second.durable[key.block] = false;
  // Lost-block recovery also resets the block's heat: the resurrected
  // producer's output starts cold instead of inheriting pre-fault
  // popularity (and stale heat must not promote a block nobody holds).
  if (heat_ != nullptr) heat_->forget(key);
}

replication::AccessDecision CatalogShard::record_fetch(const BlockKey& key,
                                                       const ReplicationConfig& cfg) {
  std::lock_guard lock(mutex_);
  if (heat_ == nullptr) heat_ = std::make_unique<replication::HeatTracker>(cfg.decay);
  replication::AccessDecision d;
  const std::uint32_t before = heat_->peek(key);
  d.heat = heat_->record(key);
  d.hot = d.heat >= cfg.hot_threshold;
  d.newly_hot = d.hot && before < cfg.hot_threshold;
  return d;
}

std::uint32_t CatalogShard::heat_of(const BlockKey& key) const {
  std::lock_guard lock(mutex_);
  return heat_ != nullptr ? heat_->peek(key) : 0;
}

BlockInfo CatalogShard::block_info(const BlockKey& key) const {
  std::lock_guard lock(mutex_);
  BlockInfo info;
  auto it = arrays_.find(key.array);
  if (it == arrays_.end()) return info;
  const auto& entry = it->second;
  if (key.block < entry.durable.size()) info.durable = entry.durable[key.block];
  auto h = entry.holders.find(key.block);
  if (h != entry.holders.end()) info.holders.assign(h->second.begin(), h->second.end());
  return info;
}

void CatalogShard::await_block(const BlockKey& key, BlockCallback cb) {
  bool fire_now = false;
  {
    std::lock_guard lock(mutex_);
    auto it = arrays_.find(key.array);
    if (it != arrays_.end() && obtainable_locked(it->second, key.block)) {
      fire_now = true;
    } else {
      awaiters_[key].push_back(std::move(cb));
    }
  }
  if (fire_now) cb(key);
}

DistributedCatalog::LookupResult DistributedCatalog::lookup(const ArrayName& name, int from_node,
                                                            LookupProtocol protocol,
                                                            std::uint64_t* rng_state) const {
  LookupResult result;
  const int n = num_shards();
  if (protocol == LookupProtocol::HashOwner) {
    const int owner = authority_of(name);
    result.hops = owner == from_node ? 0 : 1;
    result.meta = shards_[static_cast<std::size_t>(owner)]->find(name);
    return result;
  }
  // RandomWalk: ask randomly selected peers, never the same one twice
  // ("the storage keeps track of which interval it has requested").
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  SplitMix64 rng(rng_state != nullptr ? (*rng_state)++ : 0x9e3779b9);
  int remaining = n;
  // Always check ourselves first (free).
  visited[static_cast<std::size_t>(from_node)] = true;
  --remaining;
  if (auto meta = shards_[static_cast<std::size_t>(from_node)]->find(name)) {
    result.meta = std::move(meta);
    return result;
  }
  while (remaining > 0) {
    int pick;
    do {
      pick = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    } while (visited[static_cast<std::size_t>(pick)]);
    visited[static_cast<std::size_t>(pick)] = true;
    --remaining;
    ++result.hops;
    if (auto meta = shards_[static_cast<std::size_t>(pick)]->find(name)) {
      result.meta = std::move(meta);
      return result;
    }
  }
  return result;
}

}  // namespace dooc::storage
