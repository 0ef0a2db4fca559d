// ClusterLauncher: fork/exec an N-process doocd cluster on one machine.
//
// The launcher writes the manifest, spawns one doocd per node (each
// listening on its manifest address, Unix sockets by default), and owns
// their lifecycle: kill_node() delivers SIGKILL for fault drills (the
// fault layer's node-outage events now mean a real dead process),
// terminate_all() does SIGTERM -> grace -> SIGKILL teardown, wait_all()
// reaps. Per-process tracing is wired through the DOOC_TRACE environment
// variable so each daemon exports its own Chrome trace tagged with its
// real pid.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>

#include "net/manifest.hpp"
#include "net/wire.hpp"

namespace dooc::net {

struct LaunchConfig {
  Manifest manifest;
  std::string manifest_path;  ///< where the manifest file is written
  std::string durable_dir;
  /// doocd binary; empty = find_doocd() (env DOOC_DOOCD, then next to
  /// /proc/self/exe, then ../tools/doocd relative to it).
  std::string doocd_path;
  /// Per-node trace output dir; empty disables tracing in the daemons.
  std::string trace_dir;
  /// "" or "off", else the launcher throws InvalidArgument; exists for
  /// bench/e2e/workloads.cpp and goes with ROADMAP item 9.
  std::string codec_spec;
  /// DOOC_TELEMETRY spec exported to every daemon (e.g. "on,interval=100").
  /// Empty inherits the launcher's environment.
  std::string telemetry_spec;
  /// When > 0, node n gets "--metrics-port=<base+n>": each daemon serves
  /// its own Prometheus scrape endpoint alongside the coordinator's.
  int metrics_base_port = 0;
  int exec_threads = 1;
  std::string log_level = "warn";
};

class ClusterLauncher {
 public:
  explicit ClusterLauncher(LaunchConfig config);
  ~ClusterLauncher();  ///< terminate_all() if anything is still running

  ClusterLauncher(const ClusterLauncher&) = delete;
  ClusterLauncher& operator=(const ClusterLauncher&) = delete;

  /// Write the manifest and fork/exec every node. Throws Error when the
  /// daemon binary cannot be found or a fork fails.
  void spawn_all();

  [[nodiscard]] pid_t pid(NodeId node) const;
  [[nodiscard]] int num_nodes() const noexcept { return config_.manifest.num_nodes(); }

  /// SIGKILL one node (the fault drill). Returns false when the node is
  /// not running.
  bool kill_node(NodeId node);

  /// SIGSTOP one node without reaping it (the straggler drill: the
  /// process is frozen, its sockets stay open, so no PeerDown fires — only
  /// the telemetry watchdog can notice). Returns false when not running.
  bool stop_node(NodeId node);
  /// SIGCONT a stop_node()ed node.
  bool resume_node(NodeId node);

  /// SIGTERM everyone, wait up to `grace_ms`, SIGKILL the rest, reap all.
  void terminate_all(int grace_ms = 2000);

  /// Reap every child, waiting up to `timeout_ms` for them to exit on
  /// their own (after a Shutdown round). Returns the number of children
  /// that exited with a non-zero status; children still alive at the
  /// deadline are SIGKILLed and counted as failures.
  int wait_all(int timeout_ms);

  [[nodiscard]] static std::string find_doocd();

 private:
  LaunchConfig config_;
  std::map<NodeId, pid_t> children_;  ///< running children only
};

}  // namespace dooc::net
