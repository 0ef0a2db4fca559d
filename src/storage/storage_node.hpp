// One node's storage filter (paper §III-B).
//
// Responsibilities:
//  * serve read/write interval requests on immutable block-structured arrays
//    asynchronously (futures resolve when data is resident and sealed);
//  * keep a scratch directory as the node's out-of-core backing store,
//    loading blocks implicitly on miss and writing them only on explicit
//    flush requests, through asynchronous I/O filters (IoWorkerPool);
//  * account resident bytes against a memory budget and reclaim unused,
//    re-obtainable blocks (LRU by default);
//  * locate data it does not hold via the partitioned catalog (hash-owner
//    or random-walk protocol) and fetch sealed blocks from peer nodes,
//    counting the transfer as network traffic.
//
// Immutability contract: a block is written at most once (overlapping write
// intervals throw ImmutabilityViolation), becomes *sealed* when its last
// write handle is released, and is only readable once sealed. This is what
// lets DOoC skip coherency protocols entirely.
//
// Locking discipline: mutex_ orders before catalog-shard locks and before
// peer mutexes. Peer RPCs and shard methods that fire callbacks
// (note_holder / note_durable / await_block) are never called while holding
// mutex_; fetch work runs on dedicated fetcher threads that hold no locks
// while touching peers or disk.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/fair_share.hpp"

#include "common/buffer.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "storage/catalog.hpp"
#include "storage/completion_queue.hpp"
#include "storage/io_worker.hpp"
#include "storage/types.hpp"

namespace dooc::storage {

class StorageNode;
class ReadHandle;

/// Callback flavour of the read API: fires exactly once with either a valid
/// handle or the error that killed the load.
using ReadCallback = std::function<void(ReadHandle, std::exception_ptr)>;

namespace detail {

enum class BlockState { Loading, Writing, Resident };
struct Block;

}  // namespace detail

/// RAII read pin on an interval. The storage guarantees the bytes stay
/// resident until release() (paper: "for read operations, the storage
/// subsystem guarantees that the data are available until the interval is
/// released").
class ReadHandle {
 public:
  ReadHandle() = default;
  ReadHandle(ReadHandle&&) noexcept;
  ReadHandle& operator=(ReadHandle&&) noexcept;
  ReadHandle(const ReadHandle&) = delete;
  ReadHandle& operator=(const ReadHandle&) = delete;
  ~ReadHandle();

  [[nodiscard]] std::span<const std::byte> bytes() const;
  template <typename T>
  [[nodiscard]] std::span<const T> as() const {
    auto b = bytes();
    return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
  }
  [[nodiscard]] const Interval& interval() const noexcept { return interval_; }
  [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }

  void release();

 private:
  friend class StorageNode;
  ReadHandle(StorageNode* node, std::shared_ptr<detail::Block> block, Interval iv)
      : node_(node), block_(std::move(block)), interval_(std::move(iv)) {}

  StorageNode* node_ = nullptr;
  std::shared_ptr<detail::Block> block_;
  Interval interval_;
};

/// RAII write pin on an interval of an unwritten block. Releasing the last
/// write handle of a block seals it, making it visible to readers.
class WriteHandle {
 public:
  WriteHandle() = default;
  WriteHandle(WriteHandle&&) noexcept;
  WriteHandle& operator=(WriteHandle&&) noexcept;
  WriteHandle(const WriteHandle&) = delete;
  WriteHandle& operator=(const WriteHandle&) = delete;
  ~WriteHandle();

  [[nodiscard]] std::span<std::byte> bytes();
  template <typename T>
  [[nodiscard]] std::span<T> as() {
    auto b = bytes();
    return {reinterpret_cast<T*>(b.data()), b.size() / sizeof(T)};
  }
  [[nodiscard]] const Interval& interval() const noexcept { return interval_; }
  [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }

  void release();

 private:
  friend class StorageNode;
  WriteHandle(StorageNode* node, std::shared_ptr<detail::Block> block, Interval iv)
      : node_(node), block_(std::move(block)), interval_(std::move(iv)) {}

  StorageNode* node_ = nullptr;
  std::shared_ptr<detail::Block> block_;
  Interval interval_;
};

namespace detail {

/// One registered reader of a not-yet-available block, remembering how the
/// result should be delivered: a promise (future API), a callback, or a
/// tagged push into the node's completion queue.
struct ReadWaiter {
  Interval iv;
  std::promise<ReadHandle> promise;
  bool has_promise = false;
  ReadCallback callback;
  std::uint64_t tag = 0;
  bool via_queue = false;
  TenantId tenant = kDefaultTenant;  ///< job the read belongs to (obs/fair-share)
};

/// In-memory control block for one array block held by this node.
struct Block {
  BlockKey key;
  std::uint64_t bytes = 0;        ///< payload size (last block may be short)
  std::uint64_t block_start = 0;  ///< absolute array offset of this block
  DataBuffer data;                ///< allocated while Writing/Resident
  BlockState state = BlockState::Loading;
  bool sealed = false;
  bool durable = false;  ///< on disk at the array's home node
  int read_pins = 0;
  int write_pins = 0;
  std::uint64_t lru_tick = 0;  ///< last-use stamp for LRU
  /// Cache hits since install (2Q re-reference counter).
  std::uint32_t hits = 0;
  /// Protected segment of the 2Q policy: re-referenced locally or hot at
  /// the authority. Evicted only when no probationary victim exists.
  bool hot = false;
  /// At-cap replica bypass: this copy of a durable block is unlisted in
  /// the catalog (never note_holder'd) and is the first eviction victim.
  bool transient = false;
  /// Write intervals recorded for overlap (double-write) detection,
  /// as (offset-within-block, length) pairs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> written;
  /// Readers waiting for the block to become resident and sealed.
  std::vector<ReadWaiter> read_waiters;
  /// A fetch/load is already in flight or queued (request de-duplication).
  bool fetch_inflight = false;
  /// The fetch is parked in the deferred queue (in-flight-bytes budget).
  bool fetch_deferred = false;
  /// This block's load is charged against the in-flight-bytes budget and
  /// the charge must be released exactly once.
  bool budget_charged = false;
  /// Tenant the budget charge is billed to: the first requester to trigger
  /// the fetch (ride-along readers of a shared block pay nothing).
  TenantId fetch_tenant = kDefaultTenant;
  /// When the fetch was parked in the deferred queue (aging/starvation).
  std::uint64_t deferred_since_ns = 0;
  int fetch_attempts = 0;
};

}  // namespace detail

/// One finished asynchronous storage operation. Exactly one of
/// `read`/`write` is valid unless `error` is set; `tag` is the caller's
/// correlation value from read_async/write_async.
struct Completion {
  std::uint64_t tag = 0;
  ReadHandle read;
  WriteHandle write;
  std::exception_ptr error;
};

using StorageCompletionQueue = CompletionQueue<Completion>;

class StorageNode {
 public:
  /// `config.codec` and `config.replication` must be set; StorageCluster,
  /// the only constructor of nodes, fills both.
  StorageNode(int node_id, StorageConfig config, DistributedCatalog* catalog);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  /// Wire peers (done once by StorageCluster before use). peers[i] is the
  /// storage node of virtual node i; peers[id()] == this.
  void set_peers(std::vector<StorageNode*> peers) { peers_ = std::move(peers); }

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const StorageConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::string& scratch_dir() const noexcept { return scratch_dir_; }
  /// Codec policy, as resolved once by StorageCluster.
  [[nodiscard]] const spmv::codec::CodecConfig& codec() const noexcept { return codec_; }
  /// Replication policy, as resolved once by StorageCluster.
  [[nodiscard]] const ReplicationConfig& replication() const noexcept { return replication_; }
  /// The node's I/O filter pool (buffer-pool / direct-read introspection).
  [[nodiscard]] IoWorkerPool& io() noexcept { return io_; }

  // ---- Array management -------------------------------------------------
  /// Create a fresh (unwritten) array homed on this node.
  void create_array(const ArrayName& name, std::uint64_t size, std::uint64_t block_size = 0);
  /// Register an existing raw file as an array homed on this node whose
  /// blocks are all durable (the file is read in place; it need not live in
  /// the scratch directory).
  void import_file(const ArrayName& name, const std::string& path, std::uint64_t block_size = 0);
  /// Register a file holding one codec frame as a single-block array of
  /// `raw_bytes` logical bytes (the frame's decoded size). The fetch path
  /// reads the frame and decodes it on a fetcher thread before install;
  /// readers only ever see the raw bytes.
  void import_encoded_file(const ArrayName& name, const std::string& path,
                           std::uint64_t raw_bytes);
  /// Scan the scratch directory and register every regular file found, as
  /// the paper's storage does on startup. Returns how many were registered.
  std::size_t scan_scratch();
  /// Remove an array everywhere: catalog entries, resident blocks on all
  /// nodes, and the backing file. Requires no outstanding pins.
  void delete_array(const ArrayName& name);

  [[nodiscard]] std::optional<ArrayMeta> array_meta(const ArrayName& name);

  // ---- Data access ------------------------------------------------------
  /// Request read access to an interval (within one block). The future
  /// resolves once the data is resident on this node and sealed.
  std::future<ReadHandle> request_read(const Interval& iv);
  /// Request write access to an interval of a block never written before.
  std::future<WriteHandle> request_write(const Interval& iv);
  /// Callback flavour of request_read: `cb(handle, error)` fires exactly
  /// once — inline on the calling thread when the data is already resident
  /// and sealed, otherwise on the thread that completes the load.
  void read_async(const Interval& iv, ReadCallback cb);
  /// Completion-queue flavour: the finished read lands in completions()
  /// carrying the caller's `tag`. Never delivered inline — resident blocks
  /// also round-trip through the queue, so the consumer drains one uniform
  /// stream of completion events. `tenant` attributes the load to a job for
  /// fair-share admission and trace/flow tagging.
  void read_async(const Interval& iv, std::uint64_t tag, TenantId tenant = kDefaultTenant);
  /// Queue flavour of request_write. Write acquisition is synchronous, so
  /// the completion is in the queue before this returns.
  void write_async(const Interval& iv, std::uint64_t tag);
  /// The node's completion queue (see CompletionQueue for the open/close
  /// shutdown contract).
  [[nodiscard]] StorageCompletionQueue& completions() noexcept { return completions_; }
  /// Hint that the interval will be read soon; starts the load/fetch
  /// without pinning.
  void prefetch(const Interval& iv, TenantId tenant = kDefaultTenant);
  /// True when the interval's block is resident and sealed on this node.
  [[nodiscard]] bool is_resident(const Interval& iv);
  /// Residency bitmap of an array on this node (one bool per block).
  [[nodiscard]] std::vector<bool> residency(const ArrayName& name);
  /// Write all sealed, non-durable blocks of `name` held on this node to
  /// the array's home file (blocking). This is the paper's explicit write.
  void flush_array(const ArrayName& name);

  // ---- Tenants (fair-share admission) -----------------------------------
  /// Register / update a tenant's fair-share weight and priority. Called by
  /// the jobs layer at submit; unknown tenants arbitrate at weight 1.0.
  void set_tenant(TenantId tenant, double weight, int priority = 0);
  /// Forget a tenant (job finished). Outstanding charges drain normally.
  void retire_tenant(TenantId tenant);

  // ---- Teardown ---------------------------------------------------------
  /// Phase 1: the fetcher pool takes no new work. Fetches already queued
  /// still run; later submissions (retries, loads) are dropped.
  void close_fetchers() { fetchers_.close(); }
  /// Phase 2: wait until every fetcher thread has exited. StorageCluster
  /// runs both phases on every node before destroying any node, because a
  /// fetcher calls into its peers (fetch_block, store_block_at_home).
  void join_fetchers() { fetchers_.join(); }

  // ---- Introspection ----------------------------------------------------
  [[nodiscard]] StorageStats stats();
  [[nodiscard]] std::uint64_t resident_bytes();
  /// Bytes of block loads currently charged against max_inflight_load_bytes.
  [[nodiscard]] std::uint64_t inflight_load_bytes();
  /// Same, but only the loads charged to one tenant.
  [[nodiscard]] std::uint64_t inflight_load_bytes(TenantId tenant);

  // ---- Peer RPCs (public so peer nodes can call them) --------------------
  /// Return a copy of a sealed block: from memory if resident, streamed
  /// straight from disk (without caching) if this is the home node and the
  /// block is durable. *bytes_out = 0 signals "don't have it".
  DataBuffer fetch_block(const BlockKey& key, std::uint64_t* bytes_out);
  /// Drop any local state for the array (used by delete_array).
  void drop_array_local(const ArrayName& name);
  /// Outcome of forget_block_local: the block was not here, was dropped, or
  /// could not be dropped because someone still pins or awaits it.
  enum class ForgetResult { Absent, Dropped, Busy };
  /// Purge any local (in-memory) state for one block so a resurrected
  /// producer may legally rewrite it — part of lost-block recovery. Refuses
  /// (Busy) when the block is pinned, has waiters, or is being fetched:
  /// then the data is not actually lost and recovery must not clobber it.
  ForgetResult forget_block_local(const BlockKey& key);
  /// Write a block's payload into the home file (this node must be home).
  void store_block_at_home(const ArrayMeta& meta, std::uint64_t block, DataBuffer data);

 private:
  using BlockPtr = std::shared_ptr<detail::Block>;
  static constexpr int kMaxFetchAttempts = 64;

  [[nodiscard]] std::string file_path_for(const ArrayName& name) const;
  void register_meta(const ArrayMeta& meta, bool all_durable);
  /// Resolve array metadata, consulting the catalog (and caching).
  ArrayMeta resolve_meta(const ArrayName& name);
  /// Validate the interval against the metadata; returns the block index.
  static std::uint64_t check_interval(const ArrayMeta& meta, const Interval& iv);

  /// Common tail of request_read/read_async: deliver immediately when the
  /// block is resident+sealed, otherwise register the waiter and make sure
  /// a load/fetch is in flight (demand reads jump the deferred queue).
  void enqueue_read(const Interval& iv, detail::ReadWaiter waiter);
  /// Fire one waiter's delivery channel. Never call with mutex_ held.
  void deliver(detail::ReadWaiter&& w, ReadHandle handle, std::exception_ptr error);

  /// Admit the block's load against the in-flight-bytes budget: start it on
  /// a fetcher thread or park it in the tenant's deferred queue (demand
  /// reads jump that queue). mutex_ held.
  void schedule_fetch(const ArrayMeta& meta, const BlockPtr& block, bool demand, TenantId tenant);
  /// Charge the budget and hand the block to a fetcher thread. mutex_ held.
  void start_fetch_locked(const ArrayMeta& meta, const BlockPtr& block);
  /// Release the block's budget charge (if any) and start deferred fetches
  /// that now fit. mutex_ held.
  void release_budget_locked(const BlockPtr& block);
  void drain_deferred_locked();
  /// Move a deferred block to the head of the queue (a demand read arrived
  /// for data that was only prefetch-priority so far). mutex_ held.
  void promote_deferred_locked(const BlockPtr& block);
  /// Decide where to obtain the block from and do it. Fetcher thread only.
  void fetch_job(const ArrayMeta& meta, const BlockPtr& block);
  /// Re-run the fetch decision after an awaited producer sealed the block.
  void retry_fetch(const ArrayMeta& meta, const BlockPtr& block);
  /// Install freshly obtained payload, seal, wake waiters, register holder.
  /// `hot` lands the block in the 2Q protected segment; `bypass` keeps the
  /// copy transient — unlisted in the catalog, first in line for eviction
  /// (a durable block already at its replica cap).
  void install_payload(const ArrayMeta& meta, const BlockPtr& block, DataBuffer data,
                       bool durable, bool hot = false, bool bypass = false);
  /// Decode a codec frame into the block's raw bytes. Fetcher thread only —
  /// decompression never runs on compute workers. Pass-through when `data`
  /// is not a frame. Throws CodecError (an IoError) on a corrupt frame, so
  /// the fetch retry/failover machinery treats it like any other bad read.
  DataBuffer decode_payload(const BlockPtr& block, DataBuffer data);
  /// Stage up to codec().read_ahead blocks following `block` so the decode
  /// of block k overlaps the read of block k+1. Never called with mutex_.
  void issue_read_ahead(const ArrayMeta& meta, std::uint64_t block, TenantId tenant);
  /// Fail every waiter on the block and forget it.
  void fail_block(const BlockPtr& block, std::exception_ptr error);

  /// Evict reclaimable blocks until `incoming` more bytes fit the budget.
  /// Must be called with mutex_ held; holder-drop notifications are queued
  /// and published later outside the lock.
  void reclaim_locked(std::uint64_t incoming);
  void publish_pending_drops();

  void unpin_read(const BlockPtr& block);
  void release_write(const ArrayName& array, const BlockPtr& block);

  friend class ReadHandle;
  friend class WriteHandle;

  int id_;
  StorageConfig config_;
  std::string scratch_dir_;
  DistributedCatalog* catalog_;
  /// Resolved before io_ so the pool can honour codec_.direct_io.
  spmv::codec::CodecConfig codec_;
  /// Resolved hot-block replication policy (see types.hpp).
  ReplicationConfig replication_;
  std::vector<StorageNode*> peers_;
  IoWorkerPool io_;

  std::mutex mutex_;
  std::unordered_map<BlockKey, BlockPtr> blocks_;
  std::unordered_map<ArrayName, ArrayMeta> meta_cache_;
  std::vector<BlockKey> pending_drops_;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t lookup_rng_state_;

  /// In-flight-bytes budget accounting (guarded by mutex_): the fair-share
  /// arbiter holds per-tenant charges; loads that do not fit park in their
  /// tenant's deferred queue until pick() grants them. inflight_load_bytes_
  /// mirrors the arbiter's total for cheap introspection.
  FairShare fair_;
  std::uint64_t inflight_load_bytes_ = 0;
  std::map<TenantId, std::deque<std::pair<ArrayMeta, BlockPtr>>> deferred_fetches_;
  /// True when some tenant other than `t` has a deferred load parked.
  [[nodiscard]] bool others_waiting_locked(TenantId t) const;

  StorageCompletionQueue completions_;

  std::mutex stats_mutex_;
  StorageStats stats_;

  // obs metrics, resolved once per node (relaxed atomics, always on —
  // same cost class as stats_ above).
  obs::Counter* m_cache_hit_;
  obs::Counter* m_cache_miss_;
  obs::Counter* m_evictions_;
  obs::Counter* m_prefetches_;
  obs::Counter* m_fetch_started_;
  obs::Counter* m_fetch_deduped_;
  obs::Counter* m_fetch_deferred_;
  obs::Counter* m_failover_;
  obs::Counter* m_decoded_;
  obs::Counter* m_replica_hit_;
  obs::Counter* m_replica_miss_;
  obs::Counter* m_replica_promote_;
  obs::Counter* m_replica_bypass_;
  obs::Gauge* m_inflight_gauge_;
  obs::Histogram* decode_latency_us_;

  /// Declared last so it is destroyed first: ~ThreadPool joins the fetcher
  /// threads, and a fetch job still inside install_payload touches mutex_,
  /// blocks_, fair_ and completions_, which must outlive it.
  ThreadPool fetchers_;
};

}  // namespace dooc::storage
