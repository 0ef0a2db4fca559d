#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/spec.hpp"

namespace dooc {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};
std::mutex g_sink_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}

double elapsed_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}
}  // namespace

void Log::set_level(LogLevel level) noexcept { g_level.store(static_cast<int>(level), std::memory_order_relaxed); }

LogLevel Log::level() noexcept { return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed)); }

LogLevel Log::parse_level(const std::string& text) {
  return Spec::to_choice<LogLevel>(text, "--log-level",
                                   {{"trace", LogLevel::Trace}, {"debug", LogLevel::Debug},
                                    {"info", LogLevel::Info}, {"warn", LogLevel::Warn},
                                    {"error", LogLevel::Error}});
}

void Log::write(LogLevel level, const std::string& where, const std::string& message) {
  if (!enabled(level)) return;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%9.4f %s %s] %s\n", elapsed_seconds(), level_name(level), where.c_str(), message.c_str());
}

}  // namespace dooc
