// Fixed-size worker pool used by compute filters to split a task across the
// parallelism available on a (virtual) node — the paper's local scheduler
// "decomposes the tasks to expose more parallelism when necessary".
#pragma once

#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/queue.hpp"

namespace dooc {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a job; the future resolves when it finishes (or rethrows).
  std::future<void> submit(std::function<void()> job);
  /// Enqueue a job unless the pool is closed; returns whether it was.
  bool try_submit(std::function<void()> job);

  /// Stop taking new jobs; those already queued still run. Idempotent.
  void close();
  /// close(), then wait until every worker has exited. Idempotent.
  void join();

  /// Run `body(i)` for i in [0, count) across the pool and wait. `body`
  /// must be safe to call concurrently for distinct indices.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Split [0, n) into contiguous chunks, one per worker, run and wait.
  /// `body(begin, end)` receives a half-open range.
  void parallel_ranges(std::size_t n,
                       const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Job {
    std::function<void()> run;
    std::promise<void> done;
  };

  void worker_loop();

  BlockingQueue<Job> jobs_;
  std::vector<std::thread> workers_;
};

}  // namespace dooc
