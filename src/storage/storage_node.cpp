#include "storage/storage_node.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/log.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"

namespace dooc::storage {

namespace fs = std::filesystem;
using detail::Block;
using detail::BlockState;

namespace {
/// Sanity cap on the declared decoded size of codec frames discovered by a
/// scratch-directory scan (nothing legitimate approaches this).
constexpr std::uint64_t kScanDecodeCap = 1ull << 40;

/// Values of the block_fetch span's "src" arg (docs/TRACE_SCHEMA.md):
/// where the fetch was ultimately served from.
constexpr std::uint64_t kFetchSrcHomeDisk = 0;  ///< durable file via home (local or RPC)
constexpr std::uint64_t kFetchSrcReplica = 1;   ///< a peer's in-memory copy
constexpr std::uint64_t kFetchSrcFailover = 2;  ///< durable file read around a dead home
constexpr std::uint64_t kFetchSrcAwait = 3;     ///< parked on the producer
}  // namespace

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

ReadHandle::ReadHandle(ReadHandle&& other) noexcept { *this = std::move(other); }

ReadHandle& ReadHandle::operator=(ReadHandle&& other) noexcept {
  release();
  node_ = other.node_;
  block_ = std::move(other.block_);
  interval_ = other.interval_;
  other.node_ = nullptr;
  other.block_.reset();
  return *this;
}

ReadHandle::~ReadHandle() { release(); }

void ReadHandle::release() {
  if (node_ != nullptr && block_) {
    node_->unpin_read(block_);
  }
  node_ = nullptr;
  block_.reset();
}

std::span<const std::byte> ReadHandle::bytes() const {
  DOOC_REQUIRE(node_ != nullptr && block_, "bytes() on a released read handle");
  const std::uint64_t in_block = interval_.offset - block_->block_start;
  return {block_->data.data() + in_block, interval_.length};
}

WriteHandle::WriteHandle(WriteHandle&& other) noexcept { *this = std::move(other); }

WriteHandle& WriteHandle::operator=(WriteHandle&& other) noexcept {
  release();
  node_ = other.node_;
  block_ = std::move(other.block_);
  interval_ = other.interval_;
  other.node_ = nullptr;
  other.block_.reset();
  return *this;
}

WriteHandle::~WriteHandle() { release(); }

void WriteHandle::release() {
  if (node_ != nullptr && block_) {
    node_->release_write(interval_.array, block_);
  }
  node_ = nullptr;
  block_.reset();
}

std::span<std::byte> WriteHandle::bytes() {
  DOOC_REQUIRE(node_ != nullptr && block_, "bytes() on a released write handle");
  const std::uint64_t in_block = interval_.offset - block_->block_start;
  return {block_->data.data() + in_block, interval_.length};
}

// ---------------------------------------------------------------------------
// StorageNode
// ---------------------------------------------------------------------------

StorageNode::StorageNode(int node_id, StorageConfig config, DistributedCatalog* catalog)
    : id_(node_id),
      config_(std::move(config)),
      catalog_(catalog),
      codec_(config_.codec.value()),
      replication_(config_.replication.value()),
      io_(config_.io_workers, config_.throttle_read_bw, node_id, config_.fault_plan,
          codec_.direct_io),
      lookup_rng_state_(config_.seed + static_cast<std::uint64_t>(node_id) * 7919),
      m_cache_hit_(&obs::Metrics::instance().counter("storage.cache_hit", node_id)),
      m_cache_miss_(&obs::Metrics::instance().counter("storage.cache_miss", node_id)),
      m_evictions_(&obs::Metrics::instance().counter("storage.evictions", node_id)),
      m_prefetches_(&obs::Metrics::instance().counter("storage.prefetch_issued", node_id)),
      m_fetch_started_(&obs::Metrics::instance().counter("storage.fetch_started", node_id)),
      m_fetch_deduped_(&obs::Metrics::instance().counter("storage.fetch_deduped", node_id)),
      m_fetch_deferred_(&obs::Metrics::instance().counter("storage.fetch_deferred", node_id)),
      m_failover_(&obs::Metrics::instance().counter("storage.failover", node_id)),
      m_decoded_(&obs::Metrics::instance().counter("storage.blocks_decoded", node_id)),
      m_replica_hit_(&obs::Metrics::instance().counter("storage.replica_hit", node_id)),
      m_replica_miss_(&obs::Metrics::instance().counter("storage.replica_miss", node_id)),
      m_replica_promote_(&obs::Metrics::instance().counter("storage.replica_promote", node_id)),
      m_replica_bypass_(&obs::Metrics::instance().counter("storage.replica_bypass", node_id)),
      m_inflight_gauge_(&obs::Metrics::instance().gauge("storage.inflight_bytes", node_id)),
      decode_latency_us_(&obs::Metrics::instance().histogram("storage.decode_latency_us", node_id)),
      fetchers_(static_cast<std::size_t>(config_.io_workers)) {
  DOOC_REQUIRE(!config_.scratch_root.empty(), "storage config needs a scratch root");
  // Replication replaces the default LRU with the scan-resistant 2Q policy
  // so hot replicas survive one-pass streaming workloads. An explicit
  // non-default eviction choice is respected.
  if (replication_.enabled && config_.eviction == EvictionPolicy::Lru) {
    config_.eviction = EvictionPolicy::TwoQ;
  }
  scratch_dir_ = config_.scratch_root + "/node" + std::to_string(node_id);
  fs::create_directories(scratch_dir_);
  FairShareConfig fair_cfg = config_.fair_share;
  fair_cfg.budget_bytes = config_.max_inflight_load_bytes;
  fair_.set_config(fair_cfg);
}

StorageNode::~StorageNode() = default;

std::string StorageNode::file_path_for(const ArrayName& name) const {
  return scratch_dir_ + "/" + name;
}

// ---- array management ------------------------------------------------------

void StorageNode::create_array(const ArrayName& name, std::uint64_t size,
                               std::uint64_t block_size) {
  DOOC_REQUIRE(!name.empty() && name.find('/') == std::string::npos,
               "array name must be a non-empty filename-safe string");
  DOOC_REQUIRE(size > 0, "array '" + name + "' must have a positive size");
  ArrayMeta meta;
  meta.name = name;
  meta.size = size;
  meta.block_size = block_size != 0 ? block_size : config_.default_block_size;
  meta.home_node = id_;
  meta.path = file_path_for(name);
  register_meta(meta, /*all_durable=*/false);
}

void StorageNode::import_file(const ArrayName& name, const std::string& path,
                              std::uint64_t block_size) {
  DOOC_REQUIRE(!name.empty() && name.find('/') == std::string::npos,
               "array name must be a non-empty filename-safe string");
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) throw IoError("import_file('" + path + "'): " + ec.message());
  DOOC_REQUIRE(size > 0, "cannot import empty file '" + path + "'");
  ArrayMeta meta;
  meta.name = name;
  meta.size = size;
  meta.block_size = block_size != 0 ? block_size : config_.default_block_size;
  meta.home_node = id_;
  meta.path = path;
  register_meta(meta, /*all_durable=*/true);
}

void StorageNode::import_encoded_file(const ArrayName& name, const std::string& path,
                                      std::uint64_t raw_bytes) {
  DOOC_REQUIRE(!name.empty() && name.find('/') == std::string::npos,
               "array name must be a non-empty filename-safe string");
  DOOC_REQUIRE(raw_bytes > 0, "encoded array '" + name + "' must have a positive decoded size");
  std::error_code ec;
  const auto stored = fs::file_size(path, ec);
  if (ec) throw IoError("import_encoded_file('" + path + "'): " + ec.message());
  DOOC_REQUIRE(stored > 0, "cannot import empty file '" + path + "'");
  ArrayMeta meta;
  meta.name = name;
  meta.size = raw_bytes;
  meta.block_size = raw_bytes;  // one block: the frame is the transfer unit
  meta.home_node = id_;
  meta.path = path;
  meta.stored_bytes = stored;
  register_meta(meta, /*all_durable=*/true);
}

void StorageNode::register_meta(const ArrayMeta& meta, bool all_durable) {
  catalog_->shard_for(meta.name).register_array(meta, all_durable, /*authoritative=*/true);
  const int authority = catalog_->authority_of(meta.name);
  if (authority != meta.home_node) {
    catalog_->shard(meta.home_node).register_array(meta, all_durable, /*authoritative=*/false);
  }
  std::lock_guard lock(mutex_);
  meta_cache_[meta.name] = meta;
}

std::size_t StorageNode::scan_scratch() {
  std::size_t registered = 0;
  for (const auto& entry : fs::directory_iterator(scratch_dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (catalog_->shard_for(name).find(name)) continue;  // already known
    if (entry.file_size() == 0) continue;
    // Sniff codec frames left by a previous run: the array's logical size is
    // the frame's declared decoded size, not the file size. Anything that is
    // not a well-formed frame registers as a raw file, exactly as before.
    std::uint64_t raw_bytes = 0;
    {
      std::array<std::byte, spmv::codec::kCodecHeaderBytes> head{};
      std::ifstream in(entry.path(), std::ios::binary);
      in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
      if (in.gcount() == static_cast<std::streamsize>(head.size())) {
        try {
          raw_bytes = spmv::codec::probe_frame(head, entry.file_size(), kScanDecodeCap);
        } catch (const spmv::codec::CodecError&) {
          raw_bytes = 0;
        }
      }
    }
    if (raw_bytes != 0) {
      import_encoded_file(name, entry.path().string(), raw_bytes);
    } else {
      import_file(name, entry.path().string());
    }
    ++registered;
  }
  return registered;
}

void StorageNode::delete_array(const ArrayName& name) {
  const ArrayMeta meta = resolve_meta(name);
  // Drop resident state everywhere first (asserts there are no pins).
  drop_array_local(name);
  for (StorageNode* peer : peers_) {
    if (peer != nullptr && peer != this) peer->drop_array_local(name);
  }
  catalog_->shard_for(name).unregister_array(name);
  if (catalog_->authority_of(name) != meta.home_node) {
    catalog_->shard(meta.home_node).unregister_array(name);
  }
  std::error_code ec;
  fs::remove(meta.path, ec);  // may not exist (never flushed) — fine
}

void StorageNode::drop_array_local(const ArrayName& name) {
  std::vector<BlockKey> dropped;
  {
    std::lock_guard lock(mutex_);
    meta_cache_.erase(name);
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      if (it->first.array == name) {
        DOOC_REQUIRE(it->second->read_pins == 0 && it->second->write_pins == 0,
                     "delete_array('" + name + "') with outstanding pins");
        if (it->second->data.size() != 0) resident_bytes_ -= it->second->bytes;
        dropped.push_back(it->first);
        it = blocks_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& key : dropped) catalog_->shard_for(name).drop_holder(key, id_);
}

StorageNode::ForgetResult StorageNode::forget_block_local(const BlockKey& key) {
  {
    std::lock_guard lock(mutex_);
    auto it = blocks_.find(key);
    if (it == blocks_.end()) return ForgetResult::Absent;
    const BlockPtr& block = it->second;
    if (block->read_pins != 0 || block->write_pins != 0 || !block->read_waiters.empty() ||
        block->fetch_inflight) {
      return ForgetResult::Busy;
    }
    if (block->data.size() != 0) {
      resident_bytes_ -= block->bytes;
      std::lock_guard slock(stats_mutex_);
      stats_.released_bytes += block->bytes;
    }
    blocks_.erase(it);
  }
  catalog_->shard_for(key.array).drop_holder(key, id_);
  return ForgetResult::Dropped;
}

std::optional<ArrayMeta> StorageNode::array_meta(const ArrayName& name) {
  {
    std::lock_guard lock(mutex_);
    auto it = meta_cache_.find(name);
    if (it != meta_cache_.end()) return it->second;
  }
  auto result = catalog_->lookup(name, id_, config_.lookup, &lookup_rng_state_);
  {
    std::lock_guard lock(stats_mutex_);
    stats_.lookup_hops += static_cast<std::uint64_t>(result.hops);
  }
  if (result.meta) {
    std::lock_guard lock(mutex_);
    meta_cache_[name] = *result.meta;
  }
  return result.meta;
}

ArrayMeta StorageNode::resolve_meta(const ArrayName& name) {
  auto meta = array_meta(name);
  DOOC_REQUIRE(meta.has_value(), "unknown array '" + name + "'");
  return *meta;
}

std::uint64_t StorageNode::check_interval(const ArrayMeta& meta, const Interval& iv) {
  DOOC_REQUIRE(iv.length > 0, "empty interval on array '" + meta.name + "'");
  DOOC_REQUIRE(iv.end() <= meta.size,
               "interval [" + std::to_string(iv.offset) + ", " + std::to_string(iv.end()) +
                   ") exceeds array '" + meta.name + "' of size " + std::to_string(meta.size));
  const std::uint64_t first = iv.offset / meta.block_size;
  const std::uint64_t last = (iv.end() - 1) / meta.block_size;
  DOOC_REQUIRE(first == last,
               "interval spans blocks " + std::to_string(first) + ".." + std::to_string(last) +
                   " of array '" + meta.name + "'; use one interval per block");
  return first;
}

// ---- read path ---------------------------------------------------------------

std::future<ReadHandle> StorageNode::request_read(const Interval& iv) {
  detail::ReadWaiter w;
  w.iv = iv;
  w.has_promise = true;
  auto future = w.promise.get_future();
  enqueue_read(iv, std::move(w));
  return future;
}

void StorageNode::read_async(const Interval& iv, ReadCallback cb) {
  detail::ReadWaiter w;
  w.iv = iv;
  w.callback = std::move(cb);
  enqueue_read(iv, std::move(w));
}

void StorageNode::read_async(const Interval& iv, std::uint64_t tag, TenantId tenant) {
  detail::ReadWaiter w;
  w.iv = iv;
  w.tag = tag;
  w.via_queue = true;
  w.tenant = tenant;
  enqueue_read(iv, std::move(w));
}

void StorageNode::write_async(const Interval& iv, std::uint64_t tag) {
  Completion c;
  c.tag = tag;
  try {
    c.write = request_write(iv).get();  // write acquisition is synchronous
  } catch (...) {
    c.error = std::current_exception();
  }
  completions_.push(std::move(c));
}

void StorageNode::deliver(detail::ReadWaiter&& w, ReadHandle handle, std::exception_ptr error) {
  if (w.via_queue) {
    if (obs::trace_enabled() && error == nullptr) {
      // Completion-path delivery: the 't' point of the load flow the engine
      // opened at read_async issue. Inline (resident) deliveries emit an
      // orphan 't' with no matching 's' — viewers and the causal graph
      // both drop those.
      obs::emit_flow(obs::Phase::FlowStep, obs::intern("load"), obs::intern("deliver"), id_,
                     obs::current_thread_lane(), obs::TraceClock::now_ns(),
                     obs::causal::flow_id_load(w.iv.array, w.iv.offset), obs::intern("job"),
                     w.tenant);
    }
    Completion c;
    c.tag = w.tag;
    c.read = std::move(handle);
    c.error = error;
    completions_.push(std::move(c));
  } else if (w.callback) {
    w.callback(std::move(handle), error);
  } else if (error) {
    w.promise.set_exception(error);
  } else {
    w.promise.set_value(std::move(handle));
  }
}

void StorageNode::enqueue_read(const Interval& iv, detail::ReadWaiter waiter) {
  const ArrayMeta meta = resolve_meta(iv.array);
  const std::uint64_t b = check_interval(meta, iv);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.read_requests;
  }

  std::unique_lock lock(mutex_);
  const BlockKey key{iv.array, b};
  auto it = blocks_.find(key);
  const bool want_ahead = codec_.read_ahead > 0 && b + 1 < meta.num_blocks();
  if (it != blocks_.end() && it->second->state == BlockState::Resident && it->second->sealed) {
    m_cache_hit_->add();
    BlockPtr block = it->second;
    ++block->read_pins;
    block->lru_tick = ++tick_;
    // 2Q re-reference: a block read again after install graduates from the
    // probationary to the protected segment (and sheds any at-cap
    // transience — a copy that keeps getting hit has earned retention).
    if (config_.eviction == EvictionPolicy::TwoQ && ++block->hits >= replication_.promote_hits) {
      block->hot = true;
      block->transient = false;
    }
    const TenantId hit_tenant = waiter.tenant;
    lock.unlock();
    deliver(std::move(waiter), ReadHandle(this, std::move(block), iv), nullptr);
    // Keep the pipeline primed on hits too: a sequential scan stays depth-N
    // ahead instead of alternating hit/miss.
    if (want_ahead) issue_read_ahead(meta, b, hit_tenant);
    return;
  }
  m_cache_miss_->add();
  BlockPtr block;
  if (it != blocks_.end()) {
    block = it->second;
  } else {
    block = std::make_shared<Block>();
    block->key = key;
    block->bytes = meta.block_bytes(b);
    block->block_start = b * meta.block_size;
    block->state = BlockState::Loading;
    blocks_.emplace(key, block);
  }
  const TenantId tenant = waiter.tenant;
  block->read_waiters.push_back(std::move(waiter));
  if (block->state == BlockState::Loading) {
    if (!block->fetch_inflight) {
      block->fetch_inflight = true;
      schedule_fetch(meta, block, /*demand=*/true, tenant);
    } else {
      // Same block already being obtained: this request rides along.
      m_fetch_deduped_->add();
      if (block->fetch_deferred) promote_deferred_locked(block);
    }
  }
  lock.unlock();
  // Double-buffered read path: stage the next block(s) so the decode of
  // block k overlaps the disk read of block k+1.
  if (want_ahead) issue_read_ahead(meta, b, tenant);
}

void StorageNode::issue_read_ahead(const ArrayMeta& meta, std::uint64_t block, TenantId tenant) {
  const auto depth = static_cast<std::uint64_t>(codec_.read_ahead);
  for (std::uint64_t d = 1; d <= depth; ++d) {
    const std::uint64_t next = block + d;
    if (next >= meta.num_blocks()) break;
    prefetch({meta.name, next * meta.block_size, meta.block_bytes(next)}, tenant);
  }
}

void StorageNode::prefetch(const Interval& iv, TenantId tenant) {
  const ArrayMeta meta = resolve_meta(iv.array);
  const std::uint64_t b = check_interval(meta, iv);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.prefetch_requests;
  }
  m_prefetches_->add();
  if (obs::trace_enabled()) obs::emit_instant(obs::intern("storage"), obs::intern("prefetch"), id_, 0);
  std::unique_lock lock(mutex_);
  const BlockKey key{iv.array, b};
  auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    if (it->second->state == BlockState::Resident) it->second->lru_tick = ++tick_;
    if (it->second->state == BlockState::Loading) {
      if (!it->second->fetch_inflight) {
        it->second->fetch_inflight = true;
        schedule_fetch(meta, it->second, /*demand=*/false, tenant);
      } else {
        m_fetch_deduped_->add();
      }
    }
    return;
  }
  auto block = std::make_shared<Block>();
  block->key = key;
  block->bytes = meta.block_bytes(b);
  block->block_start = b * meta.block_size;
  block->state = BlockState::Loading;
  block->fetch_inflight = true;
  blocks_.emplace(key, block);
  schedule_fetch(meta, block, /*demand=*/false, tenant);
}

bool StorageNode::others_waiting_locked(TenantId t) const {
  for (const auto& [tenant, queue] : deferred_fetches_) {
    if (tenant != t && !queue.empty()) return true;
  }
  return false;
}

void StorageNode::schedule_fetch(const ArrayMeta& meta, const BlockPtr& block, bool demand,
                                 TenantId tenant) {
  block->fetch_tenant = tenant;
  const std::uint64_t budget = config_.max_inflight_load_bytes;
  if (budget != 0 && !fair_.try_admit(tenant, block->bytes, others_waiting_locked(tenant))) {
    // Over budget (or over this tenant's contended share cap): park the
    // fetch in the tenant's queue. Demand reads jump the line so a worker
    // waiting on this block is served before speculative prefetches; the
    // WDRR arbiter decides which tenant's head starts as budget frees up.
    // (When nothing is in flight even an oversized block proceeds — the
    // budget bounds concurrency, it never starves a load outright.)
    m_fetch_deferred_->add();
    block->fetch_deferred = true;
    block->deferred_since_ns = obs::TraceClock::now_ns();
    auto& queue = deferred_fetches_[tenant];
    if (demand) {
      queue.emplace_front(meta, block);
    } else {
      queue.emplace_back(meta, block);
    }
    return;
  }
  start_fetch_locked(meta, block);
}

void StorageNode::start_fetch_locked(const ArrayMeta& meta, const BlockPtr& block) {
  block->fetch_deferred = false;
  block->budget_charged = true;
  fair_.charge(block->fetch_tenant, block->bytes);
  inflight_load_bytes_ = fair_.inflight_total();
  m_fetch_started_->add();
  m_inflight_gauge_->set(static_cast<double>(inflight_load_bytes_));
  if (obs::trace_enabled()) {
    obs::emit_counter(obs::intern("storage"), obs::intern("inflight_bytes"), id_,
                      inflight_load_bytes_);
  }
  // Runs on a fetcher thread; holds no locks while touching peers/disk.
  // Dropped only once teardown has closed the pool.
  fetchers_.try_submit([this, meta, block] { fetch_job(meta, block); });
}

void StorageNode::release_budget_locked(const BlockPtr& block) {
  if (!block->budget_charged) return;
  block->budget_charged = false;
  fair_.release(block->fetch_tenant, block->bytes);
  inflight_load_bytes_ = fair_.inflight_total();
  m_inflight_gauge_->set(static_cast<double>(inflight_load_bytes_));
  if (obs::trace_enabled()) {
    obs::emit_counter(obs::intern("storage"), obs::intern("inflight_bytes"), id_,
                      inflight_load_bytes_);
  }
  drain_deferred_locked();
}

void StorageNode::drain_deferred_locked() {
  while (true) {
    // Prune entries whose block was failed or deleted while parked, then
    // put each tenant's head up for arbitration.
    std::vector<FairShare::Head> heads;
    for (auto it = deferred_fetches_.begin(); it != deferred_fetches_.end();) {
      auto& queue = it->second;
      while (!queue.empty() && (queue.front().second->state != BlockState::Loading ||
                                !queue.front().second->fetch_inflight)) {
        queue.pop_front();
      }
      if (queue.empty()) {
        it = deferred_fetches_.erase(it);
        continue;
      }
      const BlockPtr& head = queue.front().second;
      heads.push_back({it->first, head->bytes, head->deferred_since_ns});
      ++it;
    }
    if (heads.empty()) return;
    const TenantId granted = fair_.pick(heads, obs::TraceClock::now_ns());
    if (granted == FairShare::kNone) return;
    auto& queue = deferred_fetches_[granted];
    const ArrayMeta m = std::move(queue.front().first);
    const BlockPtr b = std::move(queue.front().second);
    queue.pop_front();
    if (queue.empty()) deferred_fetches_.erase(granted);
    start_fetch_locked(m, b);
  }
}

void StorageNode::promote_deferred_locked(const BlockPtr& block) {
  auto it = deferred_fetches_.find(block->fetch_tenant);
  if (it == deferred_fetches_.end()) return;
  auto& queue = it->second;
  for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
    if (qit->second == block) {
      auto entry = std::move(*qit);
      queue.erase(qit);
      queue.push_front(std::move(entry));
      return;
    }
  }
}

void StorageNode::set_tenant(TenantId tenant, double weight, int priority) {
  std::lock_guard lock(mutex_);
  fair_.set_tenant(tenant, weight, priority);
}

void StorageNode::retire_tenant(TenantId tenant) {
  std::lock_guard lock(mutex_);
  fair_.retire(tenant);
  // Anything the tenant still had parked stays queued and drains under the
  // default weight; the arbiter's outstanding charges release as the
  // fetches land.
  drain_deferred_locked();
}

void StorageNode::fetch_job(const ArrayMeta& meta, const BlockPtr& block) {
  std::optional<obs::Span> span;
  if (obs::trace_enabled()) {
    span.emplace("storage", "block_fetch", id_);
    span->arg("block", block->key.block).arg("bytes", block->bytes);
  }
  try {
    const BlockKey key = block->key;
    CatalogShard& shard = catalog_->shard_for(key.array);
    const BlockInfo info = shard.block_info(key);
    const fault::FaultPlan* plan = config_.fault_plan.get();

    // Replication: record this fetch in the authority's decayed frequency
    // counters and learn whether the block is hot and whether our copy may
    // register as another replica (durable blocks cap at max_replicas).
    replication::AccessDecision decision;
    if (replication_.enabled) {
      decision = shard.record_fetch(key, id_, replication_);
      if (decision.newly_hot) {
        m_replica_promote_->add();
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.replica_promotions;
        }
        if (obs::trace_enabled()) {
          obs::emit_instant(obs::intern("replication"), obs::intern("promote"), id_,
                            static_cast<int>(key.block));
        }
      }
    }
    const bool hot = replication_.enabled && decision.hot;
    const bool bypass = replication_.enabled && !decision.replicate;

    // 1) A peer holds a sealed in-memory copy — fetch it over the "wire".
    // This is the generalized PR 5 failover walk: with replication on the
    // candidate holders are ranked by rendezvous hash over
    // (block, holder, requester), so a hot block's readers spread across
    // its replica set instead of all hammering the lowest-numbered holder.
    std::vector<int> holders = info.holders;
    if (replication_.enabled) {
      holders = replication::rank_holders(key, id_, std::move(holders));
    }
    for (int holder : holders) {
      if (holder == id_) continue;
      if (plan != nullptr && plan->node_down(holder)) continue;  // unreachable
      StorageNode* peer = peers_[static_cast<std::size_t>(holder)];
      std::uint64_t got = 0;
      DataBuffer data = peer->fetch_block(key, &got);
      if (got != 0) {
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.remote_fetches;
          stats_.remote_fetch_bytes += got;
          if (replication_.enabled) ++stats_.replica_hits;
        }
        if (replication_.enabled) m_replica_hit_->add();
        if (span) span->arg("src", kFetchSrcReplica);
        install_payload(meta, block, std::move(data), info.durable, hot, bypass);
        return;
      }
      // Holder evicted concurrently; fall through to other options.
    }
    // A hot block that no in-memory holder could serve is a replica miss:
    // the read falls through to the (throttled) durable tier.
    if (hot && info.durable) {
      m_replica_miss_->add();
      std::lock_guard lock(stats_mutex_);
      ++stats_.replica_misses;
    }

    // 2) The block is durable at its home node. When the array is stored
    // encoded the file holds one codec frame: read its (smaller) stored
    // size and decode on this fetcher thread before install.
    const std::uint64_t durable_bytes =
        meta.stored_bytes != 0 ? meta.stored_bytes : block->bytes;
    if (info.durable) {
      if (meta.home_node == id_) {
        if (span) span->arg("src", kFetchSrcHomeDisk);
        DataBuffer data =
            io_.read(meta.path, key.block * meta.block_size, durable_bytes).get();
        install_payload(meta, block, std::move(data), /*durable=*/true, hot, bypass);
      } else if (plan != nullptr && plan->node_down(meta.home_node)) {
        // Failover: the home node is down but its scratch file survives on
        // the shared filesystem (the paper's GPFS tier outlives any one
        // storage process). Read the durable block straight from the
        // scratch-directory source through our own I/O filters.
        m_failover_->add();
        if (obs::trace_enabled()) {
          obs::emit_instant(obs::intern("fault"), obs::intern("failover"), id_, 0);
        }
        if (span) span->arg("src", kFetchSrcFailover);
        DataBuffer data =
            io_.read(meta.path, key.block * meta.block_size, durable_bytes).get();
        install_payload(meta, block, std::move(data), /*durable=*/true, hot, bypass);
      } else {
        if (span) span->arg("src", kFetchSrcHomeDisk);
        StorageNode* home = peers_[static_cast<std::size_t>(meta.home_node)];
        std::uint64_t got = 0;
        DataBuffer data = home->fetch_block(key, &got);
        if (got == 0) throw IoError("home node could not produce block of '" + key.array + "'");
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.remote_fetches;
          stats_.remote_fetch_bytes += got;
        }
        install_payload(meta, block, std::move(data), /*durable=*/true, hot, bypass);
      }
      return;
    }
    if (span) span->arg("src", kFetchSrcAwait);

    // 3) Nobody has produced the block yet: wait for a holder to appear.
    // Release the in-flight budget while parked — waiting on a producer can
    // take arbitrarily long and must not starve actual loads (or deadlock
    // two nodes waiting on each other's outputs).
    {
      std::lock_guard lock(mutex_);
      release_budget_locked(block);
    }
    if (++block->fetch_attempts > kMaxFetchAttempts) {
      throw IoError("giving up fetching block " + std::to_string(key.block) + " of '" +
                    key.array + "' after repeated attempts");
    }
    catalog_->shard_for(key.array).await_block(key, [this, meta, block](const BlockKey&) {
      // Fires on the sealing thread (outside every lock); bounce back onto
      // a fetcher thread to retry the whole decision (unless teardown has
      // closed the pool: then nobody waits for the block any more).
      fetchers_.try_submit([this, meta, block] { retry_fetch(meta, block); });
    });
  } catch (...) {
    fail_block(block, std::current_exception());
  }
}

void StorageNode::retry_fetch(const ArrayMeta& meta, const BlockPtr& block) {
  // Re-admit against the budget: the charge was dropped when the fetch
  // parked on the producer.
  std::lock_guard lock(mutex_);
  if (block->state != BlockState::Loading || !block->fetch_inflight) return;
  if (block->fetch_deferred || block->budget_charged) return;  // already queued/flying
  schedule_fetch(meta, block, /*demand=*/!block->read_waiters.empty(), block->fetch_tenant);
}

DataBuffer StorageNode::decode_payload(const BlockPtr& block, DataBuffer data) {
  if (!spmv::codec::is_encoded(data.span())) return data;
  std::optional<obs::Span> span;
  if (obs::trace_enabled()) {
    span.emplace("storage", "decode", id_);
    span->arg("block", block->key.block)
        .arg("stored_bytes", data.size())
        .arg("bytes", block->bytes);
  }
  const std::uint64_t t0 = obs::TraceClock::now_ns();
  DataBuffer raw = spmv::codec::decode_block(data.span(), block->bytes);
  const std::uint64_t elapsed = obs::TraceClock::now_ns() - t0;
  m_decoded_->add();
  decode_latency_us_->add(static_cast<double>(elapsed) * 1e-3);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.decoded_blocks;
    stats_.decoded_bytes += raw.size();
    stats_.decode_seconds += static_cast<double>(elapsed) * 1e-9;
  }
  return raw;
}

void StorageNode::install_payload(const ArrayMeta& meta, const BlockPtr& block, DataBuffer data,
                                  bool durable, bool hot, bool bypass) {
  // Transparent interop: the payload may be a codec frame (stored-encoded
  // array, or a peer streaming its durable frame). The in-memory cache only
  // ever holds raw bytes, so decode here — still on the fetcher thread,
  // never on a compute worker.
  if (meta.stored_bytes != 0 || data.size() != block->bytes) {
    data = decode_payload(block, std::move(data));
  }
  DOOC_CHECK(data.size() == block->bytes, "payload size mismatch installing block");
  std::vector<detail::ReadWaiter> waiters;
  {
    std::lock_guard lock(mutex_);
    release_budget_locked(block);
    if (block->state != BlockState::Loading) return;  // raced with delete
    reclaim_locked(block->bytes);
    block->data = std::move(data);
    block->state = BlockState::Resident;
    block->sealed = true;
    block->durable = durable;
    block->fetch_inflight = false;
    block->lru_tick = ++tick_;
    // Catalog-hot blocks land directly in the 2Q protected segment; at-cap
    // copies of durable blocks stay transient (unlisted, evicted first).
    // Bypass only ever applies to durable blocks, so an unlisted copy can
    // never be the last one in existence.
    block->hot = hot;
    block->transient = bypass && durable;
    resident_bytes_ += block->bytes;
    waiters = std::move(block->read_waiters);
    block->read_waiters.clear();
    block->read_pins += static_cast<int>(waiters.size());
  }
  for (auto& w : waiters) {
    const Interval iv = w.iv;
    deliver(std::move(w), ReadHandle(this, block, iv), nullptr);
  }
  if (bypass && durable) {
    m_replica_bypass_->add();
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.replica_bypass;
    }
    if (obs::trace_enabled()) {
      obs::emit_instant(obs::intern("replication"), obs::intern("bypass"), id_,
                        static_cast<int>(block->key.block));
    }
    return;  // transient copy: do not register as a replica holder
  }
  // Outside mutex_: note_holder may fire awaiter callbacks synchronously.
  catalog_->shard_for(meta.name).note_holder(block->key, id_);
}

void StorageNode::fail_block(const BlockPtr& block, std::exception_ptr error) {
  std::vector<detail::ReadWaiter> waiters;
  {
    std::lock_guard lock(mutex_);
    release_budget_locked(block);
    waiters = std::move(block->read_waiters);
    block->read_waiters.clear();
    block->fetch_inflight = false;
    blocks_.erase(block->key);
  }
  for (auto& w : waiters) {
    deliver(std::move(w), ReadHandle(), error);
  }
  DOOC_LOG(Warn, "storage[" + std::to_string(id_) + "]")
      << "fetch of block " << block->key.block << " of '" << block->key.array << "' failed";
}

DataBuffer StorageNode::fetch_block(const BlockKey& key, std::uint64_t* bytes_out) {
  *bytes_out = 0;
  // A node inside an outage window is unreachable: it answers every peer
  // RPC with "don't have it", and requesters fail over to other holders or
  // to the scratch-directory source.
  if (config_.fault_plan && config_.fault_plan->node_down(id_)) return {};
  DataBuffer copy;
  std::uint64_t size = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = blocks_.find(key);
    if (it != blocks_.end() && it->second->state == BlockState::Resident && it->second->sealed) {
      copy = it->second->data.clone();
      size = it->second->bytes;
      it->second->lru_tick = ++tick_;
    }
  }
  if (size == 0) {
    // Not resident: if we are the home node and the block is durable,
    // stream it straight from disk without caching (the paper's I/O nodes
    // stream to requesting compute nodes). A stored-encoded array streams
    // its codec frame as-is — the requester decodes on its own fetcher
    // thread, and the wire carries the compressed bytes.
    auto meta = array_meta(key.array);
    if (meta && meta->home_node == id_) {
      const BlockInfo info = catalog_->shard_for(key.array).block_info(key);
      if (info.durable) {
        const std::uint64_t want =
            meta->stored_bytes != 0 ? meta->stored_bytes : meta->block_bytes(key.block);
        copy = io_.read(meta->path, key.block * meta->block_size, want).get();
        size = want;
      }
    }
  }
  *bytes_out = size;
  return copy;
}

// ---- write path --------------------------------------------------------------

std::future<WriteHandle> StorageNode::request_write(const Interval& iv) {
  const ArrayMeta meta = resolve_meta(iv.array);
  const std::uint64_t b = check_interval(meta, iv);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.write_requests;
  }
  std::promise<WriteHandle> promise;
  auto future = promise.get_future();

  std::lock_guard lock(mutex_);
  const BlockKey key{iv.array, b};
  auto it = blocks_.find(key);
  BlockPtr block;
  if (it == blocks_.end()) {
    block = std::make_shared<Block>();
    block->key = key;
    block->bytes = meta.block_bytes(b);
    block->block_start = b * meta.block_size;
    block->state = BlockState::Writing;
    reclaim_locked(block->bytes);
    block->data = DataBuffer(block->bytes);
    std::fill(block->data.span().begin(), block->data.span().end(), std::byte{0});
    resident_bytes_ += block->bytes;
    blocks_.emplace(key, block);
  } else {
    block = it->second;
    if (block->state != BlockState::Writing || block->sealed) {
      throw ImmutabilityViolation("array '" + iv.array + "' block " + std::to_string(b) +
                                  " was already written (write-once violation)");
    }
  }
  // Reject overlapping writes: each memory location is written only once.
  const std::uint64_t in_block_off = iv.offset - block->block_start;
  for (const auto& [off, len] : block->written) {
    const bool disjoint = in_block_off + iv.length <= off || off + len <= in_block_off;
    if (!disjoint) {
      throw ImmutabilityViolation("overlapping write to array '" + iv.array + "' block " +
                                  std::to_string(b) + " (write-once violation)");
    }
  }
  block->written.emplace_back(in_block_off, iv.length);
  ++block->write_pins;
  promise.set_value(WriteHandle(this, block, iv));
  return future;
}

void StorageNode::release_write(const ArrayName& array, const BlockPtr& block) {
  bool sealed_now = false;
  std::vector<detail::ReadWaiter> waiters;
  {
    std::lock_guard lock(mutex_);
    DOOC_CHECK(block->write_pins > 0, "write handle released twice");
    if (--block->write_pins == 0) {
      block->sealed = true;
      block->state = BlockState::Resident;
      block->lru_tick = ++tick_;
      sealed_now = true;
      waiters = std::move(block->read_waiters);
      block->read_waiters.clear();
      for (std::size_t i = 0; i < waiters.size(); ++i) ++block->read_pins;
    }
  }
  for (auto& w : waiters) {
    const Interval iv = w.iv;
    deliver(std::move(w), ReadHandle(this, block, iv), nullptr);
  }
  if (sealed_now) {
    // Outside mutex_: may fire awaiter callbacks synchronously.
    catalog_->shard_for(array).note_holder(block->key, id_);
  }
}

void StorageNode::unpin_read(const BlockPtr& block) {
  std::lock_guard lock(mutex_);
  DOOC_CHECK(block->read_pins > 0, "read handle released twice");
  --block->read_pins;
  block->lru_tick = ++tick_;
}

// ---- residency & flush --------------------------------------------------------

bool StorageNode::is_resident(const Interval& iv) {
  const ArrayMeta meta = resolve_meta(iv.array);
  const std::uint64_t b = check_interval(meta, iv);
  std::lock_guard lock(mutex_);
  auto it = blocks_.find(BlockKey{iv.array, b});
  return it != blocks_.end() && it->second->state == BlockState::Resident && it->second->sealed;
}

std::vector<bool> StorageNode::residency(const ArrayName& name) {
  const ArrayMeta meta = resolve_meta(name);
  std::vector<bool> out(meta.num_blocks(), false);
  std::lock_guard lock(mutex_);
  for (std::uint64_t b = 0; b < out.size(); ++b) {
    auto it = blocks_.find(BlockKey{name, b});
    out[b] = it != blocks_.end() && it->second->state == BlockState::Resident &&
             it->second->sealed;
  }
  return out;
}

void StorageNode::flush_array(const ArrayName& name) {
  const ArrayMeta meta = resolve_meta(name);
  // Snapshot the sealed, non-durable blocks we hold.
  std::vector<BlockPtr> dirty;
  {
    std::lock_guard lock(mutex_);
    for (auto& [key, block] : blocks_) {
      if (key.array == name && block->sealed && !block->durable) dirty.push_back(block);
    }
  }
  std::vector<std::future<void>> writes;
  for (const auto& block : dirty) {
    if (meta.home_node == id_) {
      writes.push_back(io_.write(meta.path, block->key.block * meta.block_size, block->data));
    } else {
      StorageNode* home = peers_[static_cast<std::size_t>(meta.home_node)];
      DataBuffer wire = block->data.clone();
      {
        std::lock_guard slock(stats_mutex_);
        stats_.remote_flush_bytes += wire.size();
      }
      home->store_block_at_home(meta, block->key.block, std::move(wire));
    }
  }
  for (auto& w : writes) w.get();
  for (const auto& block : dirty) {
    {
      std::lock_guard lock(mutex_);
      block->durable = true;
    }
    catalog_->shard_for(name).note_durable(block->key);
  }
}

void StorageNode::store_block_at_home(const ArrayMeta& meta, std::uint64_t block,
                                      DataBuffer data) {
  DOOC_REQUIRE(meta.home_node == id_, "store_block_at_home on a non-home node");
  io_.write(meta.path, block * meta.block_size, std::move(data)).get();
}

// ---- reclamation ---------------------------------------------------------------

void StorageNode::reclaim_locked(std::uint64_t incoming) {
  if (resident_bytes_ + incoming <= config_.memory_budget) return;
  // Gather reclaimable blocks: sealed, unpinned, re-obtainable from disk.
  // (The paper: "the storage reclaims blocks that are stored on the disk of
  // any node and which are not currently used, according to LRU".)
  // 2Q victim classes: transient at-cap copies go first, then the
  // probationary segment (never re-referenced, not hot), and the protected
  // segment only yields when nothing else is reclaimable. LRU within each
  // class. This is what keeps hot replicas resident through one-pass scans.
  const auto twoq_class = [](const Block& b) { return b.transient ? 0 : b.hot ? 2 : 1; };
  while (resident_bytes_ + incoming > config_.memory_budget) {
    BlockPtr victim;
    for (auto& [key, block] : blocks_) {
      if (block->state != BlockState::Resident || !block->sealed || !block->durable) continue;
      if (block->read_pins != 0 || block->write_pins != 0) continue;
      if (!block->read_waiters.empty() || block->fetch_inflight) continue;
      if (block->data.size() == 0) continue;
      if (!victim) {
        victim = block;
        continue;
      }
      switch (config_.eviction) {
        case EvictionPolicy::Lru:
          if (block->lru_tick < victim->lru_tick) victim = block;
          break;
        case EvictionPolicy::TwoQ: {
          const int bc = twoq_class(*block);
          const int vc = twoq_class(*victim);
          if (bc < vc || (bc == vc && block->lru_tick < victim->lru_tick)) victim = block;
          break;
        }
      }
    }
    if (!victim) {
      DOOC_LOG(Debug, "storage[" + std::to_string(id_) + "]")
          << "memory budget exceeded but nothing is reclaimable ("
          << resident_bytes_ + incoming << " > " << config_.memory_budget << ")";
      std::lock_guard slock(stats_mutex_);
      ++stats_.budget_overshoots;
      return;  // allow overshoot rather than deadlocking
    }
    resident_bytes_ -= victim->bytes;
    {
      std::lock_guard slock(stats_mutex_);
      ++stats_.evictions;
      stats_.evicted_bytes += victim->bytes;
    }
    m_evictions_->add();
    if (obs::trace_enabled()) {
      obs::emit_instant(obs::intern("storage"), obs::intern("evict"), id_, 0);
    }
    pending_drops_.push_back(victim->key);
    blocks_.erase(victim->key);
  }
}

void StorageNode::publish_pending_drops() {
  std::vector<BlockKey> drops;
  {
    std::lock_guard lock(mutex_);
    drops.swap(pending_drops_);
  }
  for (const auto& key : drops) catalog_->shard_for(key.array).drop_holder(key, id_);
}

// ---- introspection --------------------------------------------------------------

StorageStats StorageNode::stats() {
  publish_pending_drops();
  StorageStats out;
  {
    std::lock_guard lock(stats_mutex_);
    out = stats_;
  }
  // The I/O filter pool is the single source of truth for disk traffic.
  out.disk_reads = io_.reads();
  out.disk_read_bytes = io_.read_bytes();
  out.disk_writes = io_.writes();
  out.disk_write_bytes = io_.write_bytes();
  out.disk_read_seconds = io_.read_seconds();
  out.disk_write_seconds = io_.write_seconds();
  return out;
}

std::uint64_t StorageNode::resident_bytes() {
  std::lock_guard lock(mutex_);
  return resident_bytes_;
}

std::uint64_t StorageNode::inflight_load_bytes(TenantId tenant) {
  std::lock_guard lock(mutex_);
  return fair_.inflight(tenant);
}

std::uint64_t StorageNode::inflight_load_bytes() {
  std::lock_guard lock(mutex_);
  return inflight_load_bytes_;
}

}  // namespace dooc::storage
