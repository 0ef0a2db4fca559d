#include "fault/fault_plan.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"
#include "obs/metrics.hpp"

namespace dooc::fault {

namespace {

/// Mix (seed, node, kind, op-index) into one uniform draw. The op-index is
/// the only moving part, so the schedule is a pure function of the plan.
double draw(std::uint64_t seed, int node, bool is_read, std::uint64_t op) {
  SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(node + 1) * 0x9e3779b97f4a7c15ull) ^
                 (is_read ? 0x243f6a8885a308d3ull : 0x13198a2e03707344ull) ^
                 (op * 0xa0761d6478bd642full));
  return rng.next_double();
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::ReadError: return "read-error";
    case FaultKind::WriteError: return "write-error";
    case FaultKind::ShortRead: return "short-read";
    case FaultKind::Latency: return "latency";
  }
  return "?";
}

FaultPlan::FaultPlan(FaultConfig config) : config_(std::move(config)) {
  DOOC_REQUIRE(config_.read_error_rate >= 0.0 && config_.read_error_rate <= 1.0 &&
                   config_.write_error_rate >= 0.0 && config_.write_error_rate <= 1.0 &&
                   config_.short_read_rate >= 0.0 && config_.short_read_rate <= 1.0 &&
                   config_.latency_rate >= 0.0 && config_.latency_rate <= 1.0,
               "fault rates must lie in [0, 1]");
}

bool FaultPlan::enabled() const noexcept {
  return config_.read_error_rate > 0.0 || config_.write_error_rate > 0.0 ||
         config_.short_read_rate > 0.0 || config_.latency_rate > 0.0 ||
         !config_.outages.empty();
}

FaultConfig FaultPlan::parse(const std::string& text) {
  FaultConfig cfg;
  Spec spec("DOOC_FAULTS", text);
  spec.read_int("seed", cfg.seed);
  spec.read_float("read_error", cfg.read_error_rate, 0.0, 1.0);
  spec.read_float("write_error", cfg.write_error_rate, 0.0, 1.0);
  spec.read_float("short_read", cfg.short_read_rate, 0.0, 1.0);
  if (const auto v = spec.last("latency")) {
    const auto [p, dur] = spec.split("latency", *v, ':', "P:DURATION");
    cfg.latency_rate = Spec::to_float(p, spec.what("latency"), 0.0, 1.0);
    cfg.latency_s = Spec::to_seconds(dur, spec.what("latency"));
  }
  for (const std::string& v : spec.values("down")) {
    const std::string what = spec.what("down");
    const auto [node, window] = spec.split("down", v, '@', "NODE@AFTER[+OPS]");
    const std::size_t plus = window.find('+');
    OutageSpec o;
    o.node = Spec::to_int<int>(node, what, 0);
    o.after_ops = Spec::to_int<std::uint64_t>(window.substr(0, plus), what);
    if (plus != std::string_view::npos) {
      o.duration_ops = Spec::to_int<std::uint64_t>(window.substr(plus + 1), what);
    }
    cfg.outages.push_back(o);
  }
  spec.read_int("retries", cfg.retry.max_attempts, 1);
  if (const auto v = spec.last("backoff")) {
    const auto [base, cap] = spec.split("backoff", *v, ':', "BASE:CAP");
    cfg.retry.base_backoff_s = Spec::to_seconds(base, spec.what("backoff"));
    cfg.retry.max_backoff_s = Spec::to_seconds(cap, spec.what("backoff"));
  }
  spec.read_seconds("deadline", cfg.retry.deadline_s);
  spec.finish();
  return cfg;
}

std::shared_ptr<FaultPlan> FaultPlan::from_env() {
  const std::string spec = Spec::env("DOOC_FAULTS");
  return spec.empty() ? nullptr : std::make_shared<FaultPlan>(parse(spec));
}

FaultPlan::NodeCursor& FaultPlan::cursor(int node) {
  const auto idx = static_cast<std::size_t>(node < 0 ? 0 : node);
  std::lock_guard lock(nodes_mutex_);
  while (nodes_.size() <= idx) nodes_.push_back(std::make_unique<NodeCursor>());
  return *nodes_[idx];
}

const FaultPlan::NodeCursor* FaultPlan::cursor_if(int node) const {
  const auto idx = static_cast<std::size_t>(node < 0 ? 0 : node);
  std::lock_guard lock(nodes_mutex_);
  return idx < nodes_.size() ? nodes_[idx].get() : nullptr;
}

FaultDecision FaultPlan::decide(int node, bool is_read, std::uint64_t op) {
  FaultDecision d;
  const double u = draw(config_.seed, node, is_read, op);
  // One draw, carved into disjoint probability bands so at most one fault
  // fires per op and each band's schedule is independent of the others'
  // rates being zero or not.
  double edge = 0.0;
  if (is_read) {
    edge += config_.read_error_rate;
    if (config_.read_error_rate > 0.0 && u < edge) {
      d.action = FaultDecision::Action::Fail;
      injected_[static_cast<int>(FaultKind::ReadError)].fetch_add(1, std::memory_order_relaxed);
      return d;
    }
    edge += config_.short_read_rate;
    if (config_.short_read_rate > 0.0 && u < edge) {
      d.action = FaultDecision::Action::ShortRead;
      injected_[static_cast<int>(FaultKind::ShortRead)].fetch_add(1, std::memory_order_relaxed);
      return d;
    }
  } else {
    edge += config_.write_error_rate;
    if (config_.write_error_rate > 0.0 && u < edge) {
      d.action = FaultDecision::Action::Fail;
      injected_[static_cast<int>(FaultKind::WriteError)].fetch_add(1, std::memory_order_relaxed);
      return d;
    }
  }
  edge += config_.latency_rate;
  if (config_.latency_rate > 0.0 && u < edge) {
    d.action = FaultDecision::Action::Delay;
    d.delay_s = config_.latency_s;
    injected_[static_cast<int>(FaultKind::Latency)].fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

FaultDecision FaultPlan::next_read(int node) {
  if (!enabled()) return {};
  const std::uint64_t op = cursor(node).ops.fetch_add(1, std::memory_order_relaxed);
  return decide(node, /*is_read=*/true, op);
}

FaultDecision FaultPlan::next_write(int node) {
  if (!enabled()) return {};
  const std::uint64_t op = cursor(node).ops.fetch_add(1, std::memory_order_relaxed);
  return decide(node, /*is_read=*/false, op);
}

bool FaultPlan::node_down(int node) const {
  const NodeCursor* c = cursor_if(node);
  if (c != nullptr && c->forced_down.load(std::memory_order_relaxed)) return true;
  const std::uint64_t ops = c != nullptr ? c->ops.load(std::memory_order_relaxed) : 0;
  for (const OutageSpec& o : config_.outages) {
    if (o.node != node) continue;
    if (ops < o.after_ops) continue;
    if (o.duration_ops == UINT64_MAX || ops < o.after_ops + o.duration_ops) return true;
  }
  return false;
}

void FaultPlan::mark_down(int node) {
  cursor(node).forced_down.store(true, std::memory_order_relaxed);
  obs::Metrics::instance().counter("fault.node_down", node).add();
}

void FaultPlan::mark_up(int node) {
  cursor(node).forced_down.store(false, std::memory_order_relaxed);
}

std::uint64_t FaultPlan::ops_seen(int node) const {
  const NodeCursor* c = cursor_if(node);
  return c != nullptr ? c->ops.load(std::memory_order_relaxed) : 0;
}

std::uint64_t FaultPlan::injected(FaultKind k) const {
  return injected_[static_cast<int>(k)].load(std::memory_order_relaxed);
}

}  // namespace dooc::fault
