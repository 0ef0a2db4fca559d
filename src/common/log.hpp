// Minimal thread-safe leveled logger.
//
// DOoC components log through this sink; tests silence it, benches keep it
// at Warn. The logger stamps each record with elapsed wall time and the
// emitting thread so filter/scheduler interleavings can be inspected.
#pragma once

#include <sstream>
#include <string>

namespace dooc {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global log configuration. Cheap to query from hot paths.
class Log {
 public:
  static void set_level(LogLevel level) noexcept;
  static LogLevel level() noexcept;
  static bool enabled(LogLevel level) noexcept { return level >= Log::level(); }
  /// `--log-level` value: trace|debug|info|warn|error, else InvalidArgument.
  static LogLevel parse_level(const std::string& text);

  /// Emit one record. `where` identifies the component ("storage[3]", ...).
  static void write(LogLevel level, const std::string& where, const std::string& message);
};

namespace detail {
struct LogLine {
  LogLevel level;
  std::string where;
  std::ostringstream os;
  LogLine(LogLevel l, std::string w) : level(l), where(std::move(w)) {}
  ~LogLine() { Log::write(level, where, os.str()); }
};
}  // namespace detail

}  // namespace dooc

#define DOOC_LOG(lvl, where)                               \
  if (!::dooc::Log::enabled(::dooc::LogLevel::lvl)) {      \
  } else                                                   \
    ::dooc::detail::LogLine(::dooc::LogLevel::lvl, (where)).os
