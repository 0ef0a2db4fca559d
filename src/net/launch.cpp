#include "net/launch.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"

namespace dooc::net {

namespace {

using Clock = std::chrono::steady_clock;
constexpr const char* kWhere = "net.launch";

bool executable(const std::string& path) { return ::access(path.c_str(), X_OK) == 0; }

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::string ClusterLauncher::find_doocd() {
  if (const char* env = std::getenv("DOOC_DOOCD"); env != nullptr && executable(env)) {
    return env;
  }
  const std::string dir = exe_dir();
  if (!dir.empty()) {
    for (const std::string& candidate : {dir + "/doocd", dir + "/../tools/doocd"}) {
      if (executable(candidate)) return candidate;
    }
  }
  throw Error("cannot find the doocd binary (set DOOC_DOOCD or build the tools targets)");
}

ClusterLauncher::ClusterLauncher(LaunchConfig config) : config_(std::move(config)) {
  // Blocks are always stored raw; a request for compression must not pass
  // silently.
  DOOC_REQUIRE(config_.codec_spec.empty() || config_.codec_spec == "off",
               "codec_spec '" + config_.codec_spec + "': the block codec is retired; use \"off\"");
}

ClusterLauncher::~ClusterLauncher() {
  if (!children_.empty()) terminate_all();
}

void ClusterLauncher::spawn_all() {
  DOOC_REQUIRE(children_.empty(), "cluster already spawned");
  const std::string doocd =
      config_.doocd_path.empty() ? find_doocd() : config_.doocd_path;
  if (!executable(doocd)) throw Error("doocd binary is not executable: '" + doocd + "'");
  config_.manifest.write_file(config_.manifest_path);

  for (NodeId node = 0; node < config_.manifest.num_nodes(); ++node) {
    std::vector<std::string> args = {
        doocd,
        "--manifest=" + config_.manifest_path,
        "--node=" + std::to_string(node),
        "--exec-threads=" + std::to_string(config_.exec_threads),
        "--log-level=" + config_.log_level,
    };
    if (!config_.durable_dir.empty()) args.push_back("--durable-dir=" + config_.durable_dir);
    if (config_.metrics_base_port > 0) {
      args.push_back("--metrics-port=" + std::to_string(config_.metrics_base_port + node));
    }

    const pid_t child = ::fork();
    if (child < 0) {
      terminate_all();
      throw Error("fork() failed spawning node " + std::to_string(node));
    }
    if (child == 0) {
      if (config_.trace_dir.empty()) {
        ::unsetenv("DOOC_TRACE");
      } else {
        const std::string trace = config_.trace_dir + "/node" + std::to_string(node) + ".json";
        ::setenv("DOOC_TRACE", trace.c_str(), 1);
      }
      // Per-daemon telemetry policy (empty = inherit the launcher's env).
      if (!config_.telemetry_spec.empty()) {
        ::setenv("DOOC_TELEMETRY", config_.telemetry_spec.c_str(), 1);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(doocd.c_str(), argv.data());
      // Only reached when exec fails.
      ::_exit(127);
    }
    children_[node] = child;
    DOOC_LOG(Info, kWhere) << "node " << node << " -> pid " << child;
  }
}

pid_t ClusterLauncher::pid(NodeId node) const {
  auto it = children_.find(node);
  return it == children_.end() ? -1 : it->second;
}

bool ClusterLauncher::kill_node(NodeId node) {
  auto it = children_.find(node);
  if (it == children_.end()) return false;
  DOOC_LOG(Warn, kWhere) << "SIGKILL node " << node << " (pid " << it->second << ")";
  ::kill(it->second, SIGKILL);
  ::waitpid(it->second, nullptr, 0);
  children_.erase(it);
  return true;
}

bool ClusterLauncher::stop_node(NodeId node) {
  auto it = children_.find(node);
  if (it == children_.end()) return false;
  DOOC_LOG(Warn, kWhere) << "SIGSTOP node " << node << " (pid " << it->second << ")";
  return ::kill(it->second, SIGSTOP) == 0;
}

bool ClusterLauncher::resume_node(NodeId node) {
  auto it = children_.find(node);
  if (it == children_.end()) return false;
  DOOC_LOG(Info, kWhere) << "SIGCONT node " << node << " (pid " << it->second << ")";
  return ::kill(it->second, SIGCONT) == 0;
}

void ClusterLauncher::terminate_all(int grace_ms) {
  for (const auto& [node, child] : children_) ::kill(child, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  while (!children_.empty() && Clock::now() < deadline) {
    for (auto it = children_.begin(); it != children_.end();) {
      if (::waitpid(it->second, nullptr, WNOHANG) == it->second) {
        it = children_.erase(it);
      } else {
        ++it;
      }
    }
    if (!children_.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (const auto& [node, child] : children_) {
    DOOC_LOG(Warn, kWhere) << "node " << node << " ignored SIGTERM; killing pid " << child;
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  children_.clear();
}

int ClusterLauncher::wait_all(int timeout_ms) {
  int failures = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!children_.empty() && Clock::now() < deadline) {
    for (auto it = children_.begin(); it != children_.end();) {
      int status = 0;
      if (::waitpid(it->second, &status, WNOHANG) == it->second) {
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!clean) {
          DOOC_LOG(Warn, kWhere) << "node " << it->first << " exited abnormally (status "
                                 << status << ")";
          failures += 1;
        }
        it = children_.erase(it);
      } else {
        ++it;
      }
    }
    if (!children_.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (const auto& [node, child] : children_) {
    DOOC_LOG(Warn, kWhere) << "node " << node << " still running at deadline; killing";
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    failures += 1;
  }
  children_.clear();
  return failures;
}

}  // namespace dooc::net
