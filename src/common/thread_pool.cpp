#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dooc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  DOOC_REQUIRE(num_threads > 0, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { join(); }

void ThreadPool::close() { jobs_.close(); }

void ThreadPool::join() {
  close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  Job j;
  j.run = std::move(job);
  std::future<void> fut = j.done.get_future();
  const bool pushed = jobs_.push(std::move(j));
  DOOC_REQUIRE(pushed, "submit on a shut-down thread pool");
  return fut;
}

bool ThreadPool::try_submit(std::function<void()> job) {
  Job j;
  j.run = std::move(job);
  return jobs_.push(std::move(j));
}

void ThreadPool::worker_loop() {
  while (auto job = jobs_.pop()) {
    try {
      job->run();
      job->done.set_value();
    } catch (...) {
      job->done.set_exception(std::current_exception());
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit([&body, i] { body(i); }));
  }
  for (auto& f : futures) f.get();
}

void ThreadPool::parallel_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, workers_.size());
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per;
    const std::size_t end = std::min(n, begin + per);
    if (begin >= end) break;
    futures.push_back(submit([&body, begin, end] { body(begin, end); }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace dooc
