#include "jobs/job_manager.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/spec.hpp"

namespace dooc::jobs {

JobManagerConfig JobManagerConfig::parse(const std::string& text) {
  JobManagerConfig cfg;
  Spec spec("DOOC_JOBS", text);
  spec.read_int("active", cfg.max_active, 0);
  spec.read_int("queued", cfg.max_queued, 0);
  spec.finish();
  return cfg;
}

JobManagerConfig JobManagerConfig::from_env() { return parse(Spec::env("DOOC_JOBS")); }

JobManager::JobManager(storage::StorageCluster& cluster, sched::Engine& engine,
                       JobManagerConfig config)
    : cluster_(cluster), engine_(engine), config_(config) {
  engine_.set_on_job_done([this](std::uint32_t id) { on_job_done(id); });
}

JobManager::~JobManager() {
  // Detach from the engine first: set_on_job_done returns only once no
  // on-done callback is still running, so none can touch this manager's
  // members after this line. Jobs still queued here were never dispatched
  // and their awaiters (if any) stay blocked — awaiting every submitted job
  // before destruction is the caller's contract.
  engine_.set_on_job_done(nullptr);
}

void JobManager::namespace_graph(sched::TaskGraph& graph, JobId id) {
  std::set<std::string> written;
  for (sched::TaskId t = 0; t < graph.size(); ++t) {
    for (const auto& out : graph.task(t).outputs) written.insert(out.array);
  }
  for (const std::string& name : written) {
    const std::string priv = namespaced(id, name);
    if (cluster_.catalog().shard_for(priv).find(priv)) continue;  // already cloned
    const auto meta = cluster_.catalog().shard_for(name).find(name);
    DOOC_REQUIRE(meta.has_value(),
                 "namespace_arrays: written array '" + name + "' is not in the catalog");
    // Same geometry, same home node: the clone only changes identity, so
    // the job's locality (and the global scheduler's affinity picks) match
    // what the un-namespaced graph would see.
    cluster_.node(meta->home_node).create_array(priv, meta->size, meta->block_size);
  }
  graph.rename_arrays([&](const std::string& array) {
    return written.count(array) != 0 ? namespaced(id, array) : array;
  });
}

JobId JobManager::submit(sched::TaskGraph& graph, JobOptions options) {
  DOOC_REQUIRE(graph.built(), "JobManager::submit needs a built task graph");
  const JobId id = engine_.reserve_job_id();
  // Rename before admission, not at dispatch: the caller sees the job's
  // final array names (j<id>.*) as soon as submit returns, queued or not.
  if (options.namespace_arrays) namespace_graph(graph, id);

  bool dispatch_now = false;
  {
    std::lock_guard lock(mutex_);
    if (config_.max_active == 0 || active_ < static_cast<std::size_t>(config_.max_active)) {
      ++active_;
      states_.emplace(id, JobState::Running);
      dispatch_now = true;
    } else if (config_.max_queued != 0 &&
               queue_.size() >= static_cast<std::size_t>(config_.max_queued)) {
      ++rejected_;
      throw AdmissionError("job admission queue full (" + std::to_string(queue_.size()) +
                           " queued, limit " + std::to_string(config_.max_queued) +
                           ", " + std::to_string(active_) + " active)");
    } else {
      // Keep the queue priority-descending, FIFO within a tier.
      auto it = queue_.begin();
      while (it != queue_.end() && it->options.priority >= options.priority) ++it;
      queue_.insert(it, Pending{id, &graph, options});
      states_.emplace(id, JobState::Queued);
    }
  }
  if (dispatch_now) {
    engine_.submit(graph, sched::SubmitOptions{id, options.weight, options.priority});
  }
  return id;
}

void JobManager::on_job_done(JobId id) {
  std::vector<Pending> dispatch;
  {
    std::lock_guard lock(mutex_);
    auto it = states_.find(id);
    if (it == states_.end() || it->second != JobState::Running) return;  // not ours
    it->second = JobState::Finished;
    DOOC_CHECK(active_ > 0, "job finished with no active slot accounted");
    --active_;
    while (!queue_.empty() &&
           (config_.max_active == 0 || active_ < static_cast<std::size_t>(config_.max_active))) {
      dispatch.push_back(queue_.front());
      queue_.pop_front();
      states_[dispatch.back().id] = JobState::Running;
      in_dispatch_.insert(dispatch.back().id);
      ++active_;
    }
  }
  if (dispatch.empty()) return;
  // Dispatch with the lock released: an empty graph settles inside
  // submit(), re-entering this callback.
  for (const Pending& p : dispatch) {
    engine_.submit(*p.graph, sched::SubmitOptions{p.id, p.options.weight, p.options.priority});
  }
  {
    std::lock_guard lock(mutex_);
    for (const Pending& p : dispatch) in_dispatch_.erase(p.id);
  }
  dispatched_cv_.notify_all();
}

sched::Report JobManager::await(JobId id) {
  {
    std::unique_lock lock(mutex_);
    auto it = states_.find(id);
    DOOC_REQUIRE(it != states_.end(), "await() of an unknown or already-awaited job");
    dispatched_cv_.wait(lock, [&] {
      return states_.at(id) != JobState::Queued && in_dispatch_.count(id) == 0;
    });
  }
  sched::Report report;
  std::exception_ptr err;
  try {
    report = engine_.await(id);
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::lock_guard lock(mutex_);
    states_.erase(id);
  }
  if (err) std::rethrow_exception(err);
  return report;
}

JobState JobManager::state(JobId id) {
  std::lock_guard lock(mutex_);
  auto it = states_.find(id);
  return it == states_.end() ? JobState::Unknown : it->second;
}

std::size_t JobManager::active_count() {
  std::lock_guard lock(mutex_);
  return active_;
}

std::size_t JobManager::queued_count() {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::uint64_t JobManager::rejected_count() {
  std::lock_guard lock(mutex_);
  return rejected_;
}

}  // namespace dooc::jobs
