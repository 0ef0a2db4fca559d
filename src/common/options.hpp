// Flat key-value options bag with typed accessors. Used to configure the
// runtime, the storage layer and the bench harnesses from a single place
// (and from example-program command lines) without a config-file dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dooc {

class Options {
 public:
  Options() = default;

  void set(const std::string& key, std::string value) { values_[key] = std::move(value); }
  void set_int(const std::string& key, std::int64_t value) { values_[key] = std::to_string(value); }
  void set_double(const std::string& key, double value) { values_[key] = std::to_string(value); }
  void set_bool(const std::string& key, bool value) { values_[key] = value ? "true" : "false"; }

  [[nodiscard]] bool contains(const std::string& key) const { return values_.count(key) != 0; }

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const;
  /// Typed reads follow Spec's value rules; a malformed value throws
  /// InvalidArgument naming `--key`.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Parse "--key=value" / "--flag" style arguments; anything not starting
  /// with "--" is collected as a positional argument, in order.
  static Options from_args(int argc, char** argv);
  /// A tool's main: run `body` on from_args(argc, argv). An InvalidArgument
  /// escaping it (a malformed `--key=value`) prints "<tool>: <message>" to
  /// stderr and returns 2.
  static int run_tool(const char* tool, int argc, char** argv, int (*body)(const Options&));

  [[nodiscard]] const std::map<std::string, std::string>& raw() const { return values_; }
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dooc
