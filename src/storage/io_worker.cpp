#include "storage/io_worker.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace dooc::storage {

namespace {

class ScopedFd {
 public:
  ScopedFd(const std::string& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)) {
    if (fd_ < 0) {
      throw IoError("open('" + path + "') failed: " + std::strerror(errno));
    }
  }
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_seconds() { return static_cast<double>(now_nanos()) * 1e-9; }

}  // namespace

IoWorkerPool::IoWorkerPool(int num_workers, double throttle_read_bw, int node,
                           std::shared_ptr<fault::FaultPlan> fault)
    : throttle_read_bw_(throttle_read_bw),
      node_(node),
      fault_(std::move(fault)),
      read_latency_us_(&obs::Metrics::instance().histogram("io.read_latency_us", node)),
      write_latency_us_(&obs::Metrics::instance().histogram("io.write_latency_us", node)),
      m_retries_(&obs::Metrics::instance().counter("io.retries", node)) {
  DOOC_REQUIRE(num_workers > 0, "need at least one I/O worker");
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

IoWorkerPool::~IoWorkerPool() {
  jobs_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<DataBuffer> IoWorkerPool::read(std::string path, std::uint64_t offset,
                                           std::uint64_t length) {
  Job job;
  job.is_read = true;
  job.path = std::move(path);
  job.offset = offset;
  job.length = length;
  auto fut = job.read_done.get_future();
  const bool ok = jobs_.push(std::move(job));
  DOOC_CHECK(ok, "I/O pool already shut down");
  return fut;
}

std::future<void> IoWorkerPool::write(std::string path, std::uint64_t offset, DataBuffer data) {
  Job job;
  job.is_read = false;
  job.path = std::move(path);
  job.offset = offset;
  job.data = std::move(data);
  auto fut = job.write_done.get_future();
  const bool ok = jobs_.push(std::move(job));
  DOOC_CHECK(ok, "I/O pool already shut down");
  return fut;
}

void IoWorkerPool::worker_loop() {
  while (auto job = jobs_.pop()) {
    if (job->is_read) {
      try {
        do_read(*job);
      } catch (...) {
        job->read_done.set_exception(std::current_exception());
      }
    } else {
      try {
        do_write(*job);
      } catch (...) {
        job->write_done.set_exception(std::current_exception());
      }
    }
  }
}

void IoWorkerPool::fault_sleep(const char* why, double seconds) {
  if (seconds <= 0.0) return;
  std::optional<obs::Span> span;
  if (obs::trace_enabled()) span.emplace("fault", why, node_);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void IoWorkerPool::do_read(Job& job) {
  if (!fault_) {
    job.read_done.set_value(read_attempt(job, {}));
    return;
  }
  // Fault-tolerant path: retry transient failures — injected or real — with
  // capped exponential backoff until the policy (attempts or deadline) is
  // exhausted, then surface a typed StorageError.
  fault::RetryBudget budget(fault_->config().retry, now_seconds());
  for (;;) {
    try {
      job.read_done.set_value(read_attempt(job, fault_->next_read(node_)));
      return;
    } catch (const IoError& e) {
      if (!budget.try_again(now_seconds())) {
        throw StorageError("read of '" + job.path + "' failed permanently after " +
                           std::to_string(budget.failures()) + " attempt(s): " + e.what());
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      m_retries_->add();
      fault_sleep("retry_backoff", budget.next_backoff_s(now_seconds()));
    }
  }
}

DataBuffer IoWorkerPool::read_attempt(Job& job, const fault::FaultDecision& verdict) {
  using Action = fault::FaultDecision::Action;
  if (verdict.action == Action::Fail) {
    throw IoError("injected transient read error on '" + job.path + "'");
  }
  if (verdict.action == Action::Delay) fault_sleep("latency_spike", verdict.delay_s);
  std::optional<obs::Span> span;
  if (obs::trace_enabled()) {
    span.emplace("io", "disk_read", node_);
    span->arg("bytes", job.length);
  }
  const std::uint64_t t0 = now_nanos();
  ScopedFd fd(job.path, O_RDONLY);
  // A short read truncates the transfer partway, as a flaky device would.
  const std::uint64_t want =
      verdict.action == Action::ShortRead ? job.length - (job.length + 1) / 2 : job.length;
  // Pooled buffer: aligned, padded to the alignment quantum, not zeroed —
  // the pread is the only pass over these bytes.
  DataBuffer buffer = pool_.acquire(job.length);
  std::uint64_t done = 0;
  while (done < want) {
    const ssize_t n = ::pread(fd.get(), buffer.data() + done, want - done,
                             static_cast<off_t>(job.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("pread('" + job.path + "') failed: " + std::strerror(errno));
    }
    if (n == 0) {
      throw IoError("pread('" + job.path + "'): short read (file smaller than catalog size?)");
    }
    done += static_cast<std::uint64_t>(n);
  }
  if (done < job.length) {
    throw IoError("injected short read on '" + job.path + "' (" + std::to_string(done) + "/" +
                  std::to_string(job.length) + " bytes)");
  }
  const std::uint64_t t1 = now_nanos();
  if (throttle_read_bw_ > 0.0) {
    const double want_seconds = static_cast<double>(job.length) / throttle_read_bw_;
    const double spent = static_cast<double>(t1 - t0) * 1e-9;
    if (want_seconds > spent) {
      std::this_thread::sleep_for(std::chrono::duration<double>(want_seconds - spent));
    }
  }
  const std::uint64_t elapsed = now_nanos() - t0;
  read_nanos_.fetch_add(elapsed, std::memory_order_relaxed);
  reads_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(job.length, std::memory_order_relaxed);
  read_latency_us_->add(static_cast<double>(elapsed) * 1e-3);
  return buffer;
}

void IoWorkerPool::do_write(Job& job) {
  if (!fault_) {
    write_attempt(job, {});
    job.write_done.set_value();
    return;
  }
  fault::RetryBudget budget(fault_->config().retry, now_seconds());
  for (;;) {
    try {
      write_attempt(job, fault_->next_write(node_));
      job.write_done.set_value();
      return;
    } catch (const IoError& e) {
      if (!budget.try_again(now_seconds())) {
        throw StorageError("write of '" + job.path + "' failed permanently after " +
                           std::to_string(budget.failures()) + " attempt(s): " + e.what());
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      m_retries_->add();
      fault_sleep("retry_backoff", budget.next_backoff_s(now_seconds()));
    }
  }
}

void IoWorkerPool::write_attempt(Job& job, const fault::FaultDecision& verdict) {
  using Action = fault::FaultDecision::Action;
  if (verdict.action == Action::Fail) {
    throw IoError("injected transient write error on '" + job.path + "'");
  }
  if (verdict.action == Action::Delay) fault_sleep("latency_spike", verdict.delay_s);
  std::optional<obs::Span> span;
  if (obs::trace_enabled()) {
    span.emplace("io", "disk_write", node_);
    span->arg("bytes", job.data.size());
  }
  const std::uint64_t t0 = now_nanos();
  ScopedFd fd(job.path, O_WRONLY | O_CREAT);
  std::uint64_t done = 0;
  const std::uint64_t total = job.data.size();
  while (done < total) {
    const ssize_t n = ::pwrite(fd.get(), job.data.data() + done, total - done,
                               static_cast<off_t>(job.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("pwrite('" + job.path + "') failed: " + std::strerror(errno));
    }
    done += static_cast<std::uint64_t>(n);
  }
  const std::uint64_t elapsed = now_nanos() - t0;
  write_nanos_.fetch_add(elapsed, std::memory_order_relaxed);
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(total, std::memory_order_relaxed);
  write_latency_us_->add(static_cast<double>(elapsed) * 1e-3);
}

}  // namespace dooc::storage
