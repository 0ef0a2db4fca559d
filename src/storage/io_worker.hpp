// The asynchronous I/O filter of the paper: "Interactions with the
// filesystem (both read and write) are performed by a separate I/O filter
// ... allows the interactions with the file system to be completely
// asynchronous. There should be as many I/O filters as is necessary to
// efficiently use the parallelism contained in the I/O subsystem."
//
// IoWorkerPool runs N worker threads draining a job queue of block-granular
// pread/pwrite operations against per-array scratch files.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.hpp"
#include "common/queue.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "storage/buffer_pool.hpp"
#include "storage/types.hpp"

namespace dooc::storage {

class IoWorkerPool {
 public:
  /// `throttle_read_bw` (bytes/s; 0 = off) inserts sleeps to emulate a slow
  /// device on fast local filesystems. `node` scopes the pool's obs metrics
  /// and trace events to a virtual node (-1 = unscoped). With a `fault`
  /// plan the pool becomes both the injection site (the plan's read/write
  /// verdicts fire here) and the retry site: transient failures — injected
  /// or real — are retried per the plan's RetryPolicy (capped exponential
  /// backoff + per-request deadline) and only exhaustion surfaces, as a
  /// typed StorageError.
  explicit IoWorkerPool(int num_workers, double throttle_read_bw = 0.0, int node = -1,
                        std::shared_ptr<fault::FaultPlan> fault = nullptr);
  ~IoWorkerPool();

  IoWorkerPool(const IoWorkerPool&) = delete;
  IoWorkerPool& operator=(const IoWorkerPool&) = delete;

  /// Asynchronously read [offset, offset+length) of `path` into a pooled
  /// aligned buffer (reused across reads; never zero-filled first). The
  /// future throws IoError on failure (missing file, short read).
  std::future<DataBuffer> read(std::string path, std::uint64_t offset, std::uint64_t length);

  /// Asynchronously write `data` at [offset, offset+data.size()) of `path`,
  /// creating the file (and growing it) as needed.
  std::future<void> write(std::string path, std::uint64_t offset, DataBuffer data);

  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t read_bytes() const noexcept { return read_bytes_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t write_bytes() const noexcept { return write_bytes_.load(std::memory_order_relaxed); }
  /// Cumulative seconds worker threads spent inside filesystem calls.
  [[nodiscard]] double read_seconds() const noexcept { return as_seconds(read_nanos_); }
  [[nodiscard]] double write_seconds() const noexcept { return as_seconds(write_nanos_); }
  /// Transient failures retried away (never surfaced to callers).
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_.load(std::memory_order_relaxed); }
  /// The shared aligned read-buffer pool (stats inspection for tests).
  [[nodiscard]] BufferPool& buffer_pool() noexcept { return pool_; }

 private:
  struct Job {
    bool is_read = false;
    std::string path;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;  // reads only
    DataBuffer data;           // writes only
    std::promise<DataBuffer> read_done;
    std::promise<void> write_done;
  };

  void worker_loop();
  void do_read(Job& job);
  void do_write(Job& job);
  /// One physical attempt, with the plan's verdict applied first.
  DataBuffer read_attempt(Job& job, const fault::FaultDecision& verdict);
  void write_attempt(Job& job, const fault::FaultDecision& verdict);
  /// Sleep out a backoff/latency window under a "fault"-category span so
  /// the causal graph can blame the time on the injected fault.
  void fault_sleep(const char* why, double seconds);

  static double as_seconds(const std::atomic<std::uint64_t>& nanos) noexcept {
    return static_cast<double>(nanos.load(std::memory_order_relaxed)) * 1e-9;
  }

  BlockingQueue<Job> jobs_;
  std::vector<std::thread> workers_;
  double throttle_read_bw_;
  int node_;
  BufferPool pool_;
  std::shared_ptr<fault::FaultPlan> fault_;
  /// Resolved once; obs::Histogram is internally synchronized.
  obs::Histogram* read_latency_us_;
  obs::Histogram* write_latency_us_;
  obs::Counter* m_retries_;
  std::atomic<std::uint64_t> reads_{0}, read_bytes_{0}, writes_{0}, write_bytes_{0};
  std::atomic<std::uint64_t> read_nanos_{0}, write_nanos_{0};
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace dooc::storage
