// Blocking MPMC queue — the job queue of the thread pools and the I/O
// filters. Supports bounded capacity and cooperative shutdown via close().
#pragma once

#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>

namespace dooc {

template <typename T>
class BlockingQueue {
 public:
  /// `capacity` bounds the number of queued items; push blocks when full.
  explicit BlockingQueue(std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueue, blocking while full. Returns false if the queue was closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Enqueue without blocking. Returns false when full or closed.
  bool try_push(T item) {
    std::lock_guard lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Dequeue, blocking while empty. Empty optional means closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Dequeue without blocking.
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// After close(), pushes fail and pops drain the remaining items then
  /// return nullopt. Idempotent.
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Instantaneous fullness hint (racy by nature): true when a push would
  /// currently block. Used to route slow-path instrumentation.
  [[nodiscard]] bool full() const {
    std::lock_guard lock(mutex_);
    return items_.size() >= capacity_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace dooc
