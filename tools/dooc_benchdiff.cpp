// dooc_benchdiff: compare two BENCH_*.json reports (bench_util JsonReport
// schema) and exit non-zero when a metric regressed past the threshold.
//
// Usage:  dooc_benchdiff before.json after.json [--threshold=10]
//           [--lower=metric1,metric2] [--higher=...] [--ignore=...]
//
// Direction (which way is "worse") is inferred from the metric name
// (seconds/time → lower better, gflops/bandwidth → higher better) and can
// be overridden per metric with --lower/--higher; unknown metrics are
// reported but never gate. Exit codes: 0 ok, 1 regression, 2 usage/input.
#include <cstdio>
#include <exception>
#include <string>

#include "common/benchdiff.hpp"
#include "common/options.hpp"

using namespace dooc;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int run(const Options& opts) {
  if (opts.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: dooc_benchdiff <before.json> <after.json> [--threshold=10]\n"
                 "         [--lower=metric,...] [--higher=metric,...] [--ignore=metric,...]\n");
    return 2;
  }
  bench::DiffOptions diff_opts;
  diff_opts.threshold_pct = opts.get_double("threshold", 10.0);
  diff_opts.lower_better = split_csv(opts.get("lower"));
  diff_opts.higher_better = split_csv(opts.get("higher"));
  diff_opts.ignore = split_csv(opts.get("ignore"));

  bench::DiffResult result;
  try {
    result = bench::diff_report_files(opts.positional()[0], opts.positional()[1], diff_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dooc_benchdiff: %s\n", e.what());
    return 2;
  }
  std::printf("%s", bench::format_diff(result, diff_opts.threshold_pct).c_str());
  return result.regression ? 1 : 0;
}

int main(int argc, char** argv) { return Options::run_tool("dooc_benchdiff", argc, argv, run); }
