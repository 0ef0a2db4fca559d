#include "common/benchdiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/json.hpp"

namespace dooc::bench {

namespace {

bool contains_token(const std::string& name, const char* token) {
  return name.find(token) != std::string::npos;
}

/// Identity of a record = its string-valued fields, in order ("matrix=x
/// kernel=csr-balanced"). Numeric fields are the measurements being diffed.
std::string record_identity(const json::Value& rec) {
  std::string id;
  for (const auto& [k, v] : rec.object) {
    if (!v.is_string()) continue;
    if (!id.empty()) id += ' ';
    id += k + "=" + v.str;
  }
  return id;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open '" + path + "'");
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

bool listed(const std::vector<std::string>& names, const std::string& metric) {
  return std::find(names.begin(), names.end(), metric) != names.end();
}

}  // namespace

Direction classify_metric(const std::string& name) {
  // Time-like and cost-like → lower is better.
  for (const char* t : {"seconds", "_time", "time_", "makespan", "_us", "_ms", "_ns",
                        "latency", "imbalance", "miss", "evict", "stall", "wait", "bytes_read",
                        "dropped"}) {
    if (contains_token(name, t)) return Direction::LowerBetter;
  }
  // A bare seconds suffix ("wall_s", "critical_s").
  if (name.size() >= 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
    return Direction::LowerBetter;
  }
  // Throughput-like → higher is better.
  for (const char* t : {"gflops", "flops", "bandwidth", "_bw", "bw_", "throughput", "rate",
                        "overlap", "hit", "speedup"}) {
    if (contains_token(name, t)) return Direction::HigherBetter;
  }
  return Direction::Unknown;
}

DiffResult diff_reports(const std::string& before_json, const std::string& after_json,
                        const DiffOptions& options) {
  const json::Value before = json::parse(before_json);
  const json::Value after = json::parse(after_json);
  const json::Value* brecs = before.find("records");
  const json::Value* arecs = after.find("records");
  if (brecs == nullptr || !brecs->is_array() || arecs == nullptr || !arecs->is_array()) {
    throw std::runtime_error("not a JsonReport: missing \"records\" array");
  }

  DiffResult result;

  const json::Value* bver = before.find("schema_version");
  const json::Value* aver = after.find("schema_version");
  const double bv = bver != nullptr && bver->is_number() ? bver->number : 0.0;
  const double av = aver != nullptr && aver->is_number() ? aver->number : 0.0;
  if (bv != av) {
    result.notes.push_back("schema_version differs: before=" + std::to_string(bv) +
                           " after=" + std::to_string(av));
  }

  // Index the baseline's records; first occurrence wins on duplicate ids.
  std::map<std::string, const json::Value*> baseline;
  for (const auto& rec : brecs->array) {
    if (rec.is_object()) baseline.emplace(record_identity(rec), &rec);
  }

  std::map<std::string, bool> matched;
  for (const auto& rec : arecs->array) {
    if (!rec.is_object()) continue;
    const std::string id = record_identity(rec);
    const auto bit = baseline.find(id);
    if (bit == baseline.end()) {
      result.notes.push_back("record only in after: " + (id.empty() ? "(unnamed)" : id));
      continue;
    }
    matched[id] = true;
    for (const auto& [metric, av_val] : rec.object) {
      if (!av_val.is_number() || listed(options.ignore, metric)) continue;
      const json::Value* bv_val = bit->second->find(metric);
      if (bv_val == nullptr || !bv_val->is_number()) {
        result.notes.push_back("metric only in after: " + id + " " + metric);
        continue;
      }
      MetricDelta d;
      d.record = id;
      d.metric = metric;
      d.before = bv_val->number;
      d.after = av_val.number;
      d.change_pct = d.before != 0.0
                         ? (d.after - d.before) / std::fabs(d.before) * 100.0
                         : (d.after != 0.0 ? 100.0 : 0.0);
      d.direction = listed(options.lower_better, metric)    ? Direction::LowerBetter
                    : listed(options.higher_better, metric) ? Direction::HigherBetter
                                                            : classify_metric(metric);
      const double worse_pct = d.direction == Direction::LowerBetter    ? d.change_pct
                               : d.direction == Direction::HigherBetter ? -d.change_pct
                                                                        : 0.0;
      d.regression = d.direction != Direction::Unknown && worse_pct > options.threshold_pct;
      result.regression = result.regression || d.regression;
      result.deltas.push_back(std::move(d));
    }
  }
  for (const auto& [id, rec] : baseline) {
    if (matched.count(id) == 0) {
      result.notes.push_back("record only in before: " + (id.empty() ? "(unnamed)" : id));
    }
  }
  return result;
}

DiffResult diff_report_files(const std::string& before_path, const std::string& after_path,
                             const DiffOptions& options) {
  return diff_reports(read_file(before_path), read_file(after_path), options);
}

std::string format_diff(const DiffResult& result, double threshold_pct) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%-40s %-24s %14s %14s %9s %s\n", "record", "metric", "before",
                "after", "change", "verdict");
  out += buf;
  for (const auto& d : result.deltas) {
    const char* verdict = d.regression                           ? "REGRESSION"
                          : d.direction == Direction::Unknown    ? "-"
                                                                 : "ok";
    std::snprintf(buf, sizeof(buf), "%-40s %-24s %14.6g %14.6g %+8.2f%% %s\n", d.record.c_str(),
                  d.metric.c_str(), d.before, d.after, d.change_pct, verdict);
    out += buf;
  }
  for (const auto& note : result.notes) out += "note: " + note + "\n";
  std::snprintf(buf, sizeof(buf), "%zu metric(s) compared, %zu regression(s) past %.1f%%\n",
                result.deltas.size(), result.regressions(), threshold_pct);
  out += buf;
  return out;
}

}  // namespace dooc::bench
