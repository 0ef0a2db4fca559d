#include "obs/causal.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace dooc::obs::causal {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Sorted-merge of intervals into a disjoint ascending list.
std::vector<std::pair<double, double>> merge_intervals(
    std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  std::vector<std::pair<double, double>> out;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!out.empty() && s <= out.back().second) {
      out.back().second = std::max(out.back().second, e);
    } else {
      out.emplace_back(s, e);
    }
  }
  return out;
}

/// Overlap of [lo, hi) with a disjoint ascending interval list.
double overlap_with(double lo, double hi,
                    const std::vector<std::pair<double, double>>& merged) {
  double total = 0.0;
  for (const auto& [s, e] : merged) {
    if (s >= hi) break;
    const double a = std::max(lo, s);
    const double b = std::min(hi, e);
    if (b > a) total += b - a;
  }
  return total;
}

}  // namespace

std::uint64_t flow_id_dep(std::string_view array) {
  return kFlowDep | (fnv1a(array) & ~kFlowNamespaceMask);
}

std::uint64_t flow_id_load(std::string_view array, std::uint64_t offset) {
  std::uint64_t h = fnv1a(array);
  h ^= offset + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 1099511628211ull;
  return kFlowLoad | (h & ~kFlowNamespaceMask);
}

CausalGraph CausalGraph::build(const std::vector<ParsedEvent>& events) {
  CausalGraph g;

  // ---- span nodes -----------------------------------------------------------
  std::unordered_map<std::int64_t, std::size_t> task_node;
  std::map<int, std::vector<std::pair<double, double>>> fault_iv;
  for (const auto& ev : events) {
    if (ev.phase != 'X') continue;
    if (ev.cat == "fault") {
      // Retry-backoff / injected-latency intervals are not nodes of the DAG
      // (the enclosing load already is); they are remembered so Load-node
      // blame can attribute the slice of I/O time the fault machinery ate.
      fault_iv[ev.pid].emplace_back(ev.ts_us, ev.ts_us + ev.dur_us);
      continue;
    }
    if (ev.cat != "task") {
      // Everything else ("inputs-pending" bookkeeping, raw storage/io
      // spans, ...) is descriptive, not causal: load flows already carry
      // the I/O structure, and double-counting them here would skew blame.
      continue;
    }
    CausalNode n;  // kind defaults to Compute
    const auto it = ev.args.find("task");
    if (it != ev.args.end()) n.task = static_cast<std::int64_t>(it->second);
    n.name = ev.name;
    n.start_us = ev.ts_us;
    n.end_us = ev.ts_us + ev.dur_us;
    n.pid = ev.pid;
    n.tid = ev.tid;
    if (n.task >= 0) task_node[n.task] = g.nodes_.size();
    g.nodes_.push_back(std::move(n));
  }

  // ---- flow instances -------------------------------------------------------
  struct Point {
    char ph = '?';
    double ts = 0.0;
    int pid = -1;
    int tid = 0;
    std::int64_t task = -1;  ///< the "task" arg (s: producer, f: consumer)
  };
  // Load flows never cross nodes (a node reads through its own storage
  // node), so they group by (id, pid) — two nodes fetching the same block
  // are two separate loads. Dep flows cross nodes by design: id only.
  std::map<std::pair<std::uint64_t, int>, std::vector<Point>> flows;
  for (const auto& ev : events) {
    if ((ev.phase != 's' && ev.phase != 't' && ev.phase != 'f') || ev.flow_id == 0) continue;
    Point p;
    p.ph = ev.phase;
    p.ts = ev.ts_us;
    p.pid = ev.pid;
    p.tid = ev.tid;
    const auto it = ev.args.find("task");
    if (it != ev.args.end()) p.task = static_cast<std::int64_t>(it->second);
    const bool load = (ev.flow_id & kFlowNamespaceMask) == kFlowLoad;
    flows[{ev.flow_id, load ? ev.pid : -1}].push_back(p);
  }

  // Edges must respect a strict order so the DAG cannot cycle even with
  // zero-duration nodes at equal (virtual) timestamps: pred must end by
  // succ's start AND come strictly earlier in (start, index) order.
  auto add_edge = [&](std::size_t pred, std::size_t succ) {
    if (pred == kNoNode || succ == kNoNode || pred == succ) return;
    const CausalNode& p = g.nodes_[pred];
    CausalNode& s = g.nodes_[succ];
    if (p.end_us > s.start_us) return;  // overlap (clock skew / nesting): drop
    if (p.start_us > s.start_us || (p.start_us == s.start_us && pred >= succ)) return;
    if (std::find(s.preds.begin(), s.preds.end(), pred) == s.preds.end()) {
      s.preds.push_back(pred);
    }
  };

  auto find_task = [&](std::int64_t t) -> std::size_t {
    const auto it = task_node.find(t);
    return it != task_node.end() ? it->second : kNoNode;
  };

  for (auto& [key, points] : flows) {
    const std::uint64_t id = key.first;
    // The same id recurs when a block is re-read after eviction; each 's'
    // opens a new instance. At equal ts, non-'s' points sort first so a
    // closing point binds to the earlier instance.
    std::stable_sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return (a.ph != 's') && (b.ph == 's');
    });
    const bool is_load = (id & kFlowNamespaceMask) == kFlowLoad;
    std::size_t i = 0;
    while (i < points.size()) {
      if (points[i].ph != 's') {
        ++i;  // orphan 't'/'f' (e.g. a resident read's delivery): no instance
        continue;
      }
      const std::size_t begin = i++;
      while (i < points.size() && points[i].ph != 's') ++i;
      // Instance = [begin, i).
      if (is_load) {
        CausalNode n;
        n.kind = NodeKind::Load;
        n.name = "load";
        n.pid = points[begin].pid;
        n.tid = points[begin].tid;
        n.start_us = points[begin].ts;
        // The 't' (delivery) point is when the data actually arrived; the
        // 'f' only links the consumer and may trail delivery (it fires when
        // the whole task turns Runnable). Fall back to 'f' when there is no
        // delivery point (e.g. a synthetic or foreign trace).
        double end_st = points[begin].ts, end_any = points[begin].ts;
        bool has_step = false;
        for (std::size_t k = begin; k < i; ++k) {
          end_any = std::max(end_any, points[k].ts);
          if (points[k].ph != 'f') end_st = std::max(end_st, points[k].ts);
          if (points[k].ph == 't') has_step = true;
        }
        n.end_us = has_step ? end_st : end_any;
        const std::size_t load_idx = g.nodes_.size();
        g.nodes_.push_back(std::move(n));
        for (std::size_t k = begin; k < i; ++k) {
          if (points[k].ph == 'f' && points[k].task >= 0) {
            add_edge(load_idx, find_task(points[k].task));
          }
        }
      } else {
        const std::size_t producer = points[begin].task >= 0
                                         ? find_task(points[begin].task)
                                         : kNoNode;
        for (std::size_t k = begin; k < i; ++k) {
          if (points[k].ph == 'f' && points[k].task >= 0) {
            add_edge(producer, find_task(points[k].task));
          }
        }
      }
    }
  }

  // ---- program order --------------------------------------------------------
  // A worker lane runs one span at a time: chain consecutive Compute
  // nodes per (pid, tid). Nested spans fail the end<=start check inside
  // add_edge and are simply not chained.
  std::map<std::pair<int, int>, std::vector<std::size_t>> lanes;
  for (std::size_t idx = 0; idx < g.nodes_.size(); ++idx) {
    if (g.nodes_[idx].kind == NodeKind::Load) continue;
    lanes[{g.nodes_[idx].pid, g.nodes_[idx].tid}].push_back(idx);
  }
  for (auto& [lane, idxs] : lanes) {
    std::sort(idxs.begin(), idxs.end(), [&](std::size_t a, std::size_t b) {
      if (g.nodes_[a].start_us != g.nodes_[b].start_us)
        return g.nodes_[a].start_us < g.nodes_[b].start_us;
      return a < b;
    });
    for (std::size_t k = 1; k < idxs.size(); ++k) add_edge(idxs[k - 1], idxs[k]);
  }

  // ---- extents and per-pid compute busy intervals ---------------------------
  if (!g.nodes_.empty()) {
    g.min_start_us_ = std::numeric_limits<double>::infinity();
    g.max_end_us_ = -std::numeric_limits<double>::infinity();
    std::map<int, std::vector<std::pair<double, double>>> busy;
    for (const auto& n : g.nodes_) {
      g.min_start_us_ = std::min(g.min_start_us_, n.start_us);
      g.max_end_us_ = std::max(g.max_end_us_, n.end_us);
      if (n.kind == NodeKind::Compute) busy[n.pid].emplace_back(n.start_us, n.end_us);
    }
    for (auto& [pid, iv] : busy) g.compute_busy_[pid] = merge_intervals(std::move(iv));
  }
  for (auto& [pid, iv] : fault_iv) g.fault_busy_[pid] = merge_intervals(std::move(iv));
  return g;
}

double CausalGraph::shadowed_us(const CausalNode& n) const {
  const auto it = compute_busy_.find(n.pid);
  if (it == compute_busy_.end()) return 0.0;
  return overlap_with(n.start_us, n.end_us, it->second);
}

double CausalGraph::fault_us(const CausalNode& n) const {
  const auto it = fault_busy_.find(n.pid);
  if (it == fault_busy_.end()) return 0.0;
  return overlap_with(n.start_us, n.end_us, it->second);
}

std::vector<PathSegment> CausalGraph::critical_path() const {
  std::vector<PathSegment> path;
  if (nodes_.empty()) return path;
  std::size_t cur = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].end_us > nodes_[cur].end_us) cur = i;
  }
  // Walk back (the edge order invariant makes cycles impossible; the hop
  // bound is belt and braces).
  for (std::size_t hops = 0; hops <= nodes_.size(); ++hops) {
    const CausalNode& n = nodes_[cur];
    if (n.kind == NodeKind::Load) {
      // Fault machinery (backoff sleeps, injected latency) takes precedence
      // over the demand/shadowed split: that slice of the load exists only
      // because something misbehaved. The splits may overlap (a backoff
      // can be compute-shadowed), so the demand remainder is clamped at
      // zero.
      const double fl = fault_us(n);
      const double sh = shadowed_us(n);
      const double demand = std::max(0.0, n.dur_us() - sh - fl);
      if (fl > 0.0) path.push_back({cur, kBlameFault, fl});
      if (sh > 0.0) path.push_back({cur, kBlamePrefetchIo, sh});
      if (demand > 0.0) path.push_back({cur, kBlameDemandIo, demand});
    } else if (n.dur_us() > 0.0) {
      path.push_back({cur, kBlameCompute, n.dur_us()});
    }
    std::size_t best = kNoNode;
    for (const std::size_t p : n.preds) {
      if (best == kNoNode || nodes_[p].end_us > nodes_[best].end_us) best = p;
    }
    if (best == kNoNode) {
      const double gap = n.start_us - min_start_us_;
      if (gap > 0.0) path.push_back({cur, kBlameSchedWait, gap});
      break;
    }
    const double gap = n.start_us - nodes_[best].end_us;
    if (gap > 0.0) path.push_back({cur, kBlameSchedWait, gap});
    cur = best;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Blame CausalGraph::blame() const {
  Blame b;
  for (const auto& seg : critical_path()) b.by_category_us[seg.category] += seg.us;
  return b;
}

double CausalGraph::what_if(std::string_view category, double factor) const {
  const auto matches = [&](NodeKind k) {
    if (category == "io") return k == NodeKind::Load;
    if (category == "compute") return k == NodeKind::Compute;
    return false;
  };
  std::vector<std::size_t> order(nodes_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (nodes_[a].start_us != nodes_[b].start_us)
      return nodes_[a].start_us < nodes_[b].start_us;
    return a < b;
  });
  // Retiming: every root starts at 0, everything else as soon as its
  // predecessors allow. Scaling is monotone, so with factor <= 1 the
  // result cannot exceed the measured makespan.
  std::vector<double> new_end(nodes_.size(), 0.0);
  double makespan = 0.0;
  for (const std::size_t i : order) {
    double start = 0.0;
    for (const std::size_t p : nodes_[i].preds) start = std::max(start, new_end[p]);
    const double scale = matches(nodes_[i].kind) ? factor : 1.0;
    new_end[i] = start + nodes_[i].dur_us() * scale;
    makespan = std::max(makespan, new_end[i]);
  }
  return makespan;
}

std::string causal_report(const CausalGraph& graph, bool critical_path, bool blame,
                          const std::vector<std::pair<std::string, double>>& what_ifs) {
  std::string out;
  char buf[256];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  if (graph.empty()) return "causal: no task/flow events in trace\n";
  const auto path = graph.critical_path();
  if (critical_path) {
    out += "== critical path ==\n";
    double covered = 0.0;
    for (const auto& seg : path) covered += seg.us;
    line("makespan %.3f ms, path explains %.3f ms over %zu segment(s)\n",
         graph.makespan_us() / 1e3, covered / 1e3, path.size());
    line("%12s %12s  %-14s %s\n", "start_ms", "dur_ms", "category", "node");
    for (const auto& seg : path) {
      const auto& n = graph.nodes()[seg.node];
      line("%12.3f %12.3f  %-14s %s (pid %d tid %d%s)\n", n.start_us / 1e3, seg.us / 1e3,
           seg.category.c_str(), n.name.c_str(), n.pid, n.tid,
           n.task >= 0 ? (" task " + std::to_string(n.task)).c_str() : "");
    }
  }
  if (blame) {
    const Blame b = graph.blame();
    out += "== blame (critical path) ==\n";
    for (const auto& [cat, us] : b.by_category_us) {
      line("%-14s %12.3f ms  %5.1f%%\n", cat.c_str(), us / 1e3,
           b.total_us() > 0.0 ? 100.0 * us / b.total_us() : 0.0);
    }
  }
  for (const auto& [cat, factor] : what_ifs) {
    const double predicted = graph.what_if(cat, factor);
    line("what-if %s x%g: predicted makespan %.3f ms (speedup %.2fx over %.3f ms)\n",
         cat.c_str(), factor, predicted / 1e3,
         predicted > 0.0 ? graph.makespan_us() / predicted : 0.0,
         graph.makespan_us() / 1e3);
  }
  return out;
}

}  // namespace dooc::obs::causal
