#include "common/options.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/spec.hpp"

namespace dooc {

std::string Options::get(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : Spec::to_int<std::int64_t>(it->second, "--" + key);
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : Spec::to_float(it->second, "--" + key);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : Spec::to_bool(it->second, "--" + key);
}

Options Options::from_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      opts.set_bool(arg, true);
    } else {
      opts.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
  return opts;
}

int Options::run_tool(const char* tool, int argc, char** argv, int (*body)(const Options&)) {
  try {
    return body(from_args(argc, argv));
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 2;
  }
}

}  // namespace dooc
