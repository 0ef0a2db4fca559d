// dooc::fault — deterministic fault injection for the storage / execution
// stack.
//
// A FaultPlan is a seeded schedule of storage-tier misbehaviour: transient
// read/write errors, latency spikes, short reads, and whole-storage-node
// outages. Decisions are pure functions of (seed, node, op-kind, op-index):
// the i-th read issued against node n always draws the same verdict for the
// same seed, regardless of thread interleaving — which is what makes
// recovery policies unit-testable (same seed ⇒ same injection schedule) and
// lets the DES replay the exact schedule under virtual time.
//
// The plan is shared by every storage node of a cluster (it is cluster
// state, not node state) and is configured either programmatically or from
// the DOOC_FAULTS environment variable, e.g. "seed=7,read_error=0.05,
// latency=0.1:5ms,down=1@40,retries=4,backoff=1ms:50ms" (key table in
// docs/OPERATIONS.md).
//
// Injection sites (all at the io_worker / storage_node boundary):
//  * IoWorkerPool::do_read / do_write consult next_read / next_write;
//  * StorageNode::fetch_block answers "don't have it" while its node is
//    down (peers see an unreachable node and fail over);
//  * SimEngine draws from the same plan when deciding whether a modeled
//    GPFS/IB flow fails.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/retry_policy.hpp"

namespace dooc::fault {

enum class FaultKind : std::uint8_t { ReadError, WriteError, ShortRead, Latency };

[[nodiscard]] const char* to_string(FaultKind k);

/// Verdict for one storage operation.
struct FaultDecision {
  enum class Action : std::uint8_t {
    None,       ///< proceed normally
    Fail,       ///< fail the op with a transient I/O error
    ShortRead,  ///< deliver fewer bytes than requested (reads only)
    Delay,      ///< proceed, but only after `delay_s`
  };
  Action action = Action::None;
  double delay_s = 0.0;

  [[nodiscard]] bool injects() const noexcept { return action != Action::None; }
};

/// One scheduled node outage, in units of that node's storage-op count.
struct OutageSpec {
  int node = -1;
  std::uint64_t after_ops = 0;  ///< ops the node serves before going down
  /// Ops the outage lasts; UINT64_MAX = permanent.
  std::uint64_t duration_ops = UINT64_MAX;
};

struct FaultConfig {
  std::uint64_t seed = 1;
  double read_error_rate = 0.0;
  double write_error_rate = 0.0;
  double short_read_rate = 0.0;
  double latency_rate = 0.0;
  double latency_s = 0.0;
  std::vector<OutageSpec> outages;
  RetryPolicy retry;  ///< policy the storage layer should pair with the plan
};

class FaultPlan {
 public:
  FaultPlan() = default;  ///< inert plan: never injects, no node is down
  explicit FaultPlan(FaultConfig config);

  /// Parse a DOOC_FAULTS spec into a config (the plan itself holds atomics
  /// and cannot be moved). Throws dooc::InvalidArgument on a bad spec.
  static FaultConfig parse(const std::string& spec);
  /// Plan from the DOOC_FAULTS environment variable; nullptr when unset or
  /// empty (the common, zero-overhead case).
  static std::shared_ptr<FaultPlan> from_env();

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept;

  /// Draw the verdict for the next read / write issued against `node`.
  /// Advances that node's deterministic op counter.
  FaultDecision next_read(int node);
  FaultDecision next_write(int node);

  /// True while `node` is inside a scheduled or programmatic outage window.
  /// Does not advance any counter.
  [[nodiscard]] bool node_down(int node) const;

  /// Programmatic outage control (tests, chaos drivers). mark_down(node)
  /// overrides the schedule until mark_up(node).
  void mark_down(int node);
  void mark_up(int node);

  /// Ops served so far per node (the clock outage schedules run on).
  [[nodiscard]] std::uint64_t ops_seen(int node) const;

  /// Total injections handed out, per kind (cheap relaxed counters).
  [[nodiscard]] std::uint64_t injected(FaultKind k) const;

 private:
  struct NodeCursor {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<bool> forced_down{false};
  };

  FaultDecision decide(int node, bool is_read, std::uint64_t op_index);
  NodeCursor& cursor(int node);
  [[nodiscard]] const NodeCursor* cursor_if(int node) const;

  FaultConfig config_;
  /// Grown on first touch per node; pointers stay stable (deque-like
  /// ownership through unique_ptr) so cursors can be atomic.
  mutable std::mutex nodes_mutex_;
  std::vector<std::unique_ptr<NodeCursor>> nodes_;
  std::atomic<std::uint64_t> injected_[4] = {};
};

}  // namespace dooc::fault
