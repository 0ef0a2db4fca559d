// NodeServer: the body of one doocd process — one storage/executor node of
// the cluster, behind a Transport.
//
// The recv loop owns the protocol: PutBlock stores deployed blocks (also
// durably), Barrier acks once every earlier frame is handled, FetchReq
// serves blocks to peers, Release drops blocks no task reads again,
// ExecTask enqueues work for the executor thread, ReportReq answers with
// the node's counters, Shutdown ends the loop. The executor thread
// resolves the inputs a task's kernel reads (local store -> remote fetch
// from the input's home; the durable file of a deployed block whose home
// died, which it keeps), binds the task kind to the same deterministic
// spmv kernels the in-process engine calls, keeps the outputs in memory
// only, and acks with TaskDone. A fetched input is not kept: it lives on
// its home alone, so a released block leaves the cluster's memory.
//
// Remote fetches are promise-based: the executor registers a pending
// request keyed by frame tag, the recv loop fulfills it on FetchOk /
// FetchFail — and fails it when the home peer goes down, so a mid-run node
// death fails the task, naming the dead home, instead of hanging. A task
// sends all its FetchReqs before it waits on any, so inputs homed on
// different peers arrive concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/thread_pool.hpp"
#include "net/block_store.hpp"
#include "net/manifest.hpp"
#include "net/protocol.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"

namespace dooc::net {

struct NodeServerConfig {
  NodeId node = 0;
  /// Shared durable directory for deployed blocks (empty: memory only).
  std::string durable_dir;
  /// Threads in the kernel pool (results are bitwise independent of this;
  /// see spmv/kernels.hpp).
  int exec_threads = 1;
  /// How long the executor waits for one remote fetch before it fails
  /// the task.
  int fetch_timeout_ms = 10000;
  /// Live telemetry policy. nullopt resolves from DOOC_TELEMETRY (again
  /// the launcher's hook). When enabled, the recv loop streams one
  /// TelemetryFrame per interval to the coordinator.
  std::optional<obs::telemetry::TelemetryConfig> telemetry;
};

class NodeServer {
 public:
  NodeServer(std::unique_ptr<Transport> transport, NodeServerConfig config);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Serve until a Shutdown frame, stop(), or transport close. Blocking.
  void run();

  /// Ask run() to return (signal handlers set this via an atomic).
  void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] BlockStore& store() noexcept { return store_; }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] NodeReportMsg report() const;

 private:
  /// A remote fetch's outcome. A failure travels as text and the waiting
  /// executor throws it itself: no exception object crosses threads.
  struct FetchOutcome {
    DataBuffer bytes;
    std::string error;  ///< set on FetchFail or when the home peer went down
    std::chrono::steady_clock::time_point arrived;  ///< when the recv loop settled it
    bool home_down = false;                         ///< error is the home peer going down
  };
  struct PendingFetch {
    NodeId home = 0;
    std::promise<FetchOutcome> promise;
  };
  /// One FetchReq on the wire, sent at `sent`.
  struct InFlight {
    std::uint64_t tag = 0;
    std::future<FetchOutcome> future;
    std::chrono::steady_clock::time_point sent;
    std::uint64_t sent_ns = 0;  ///< trace clock at send (fetch span start)
  };

  void handle_frame(const RecvEvent& ev);
  void handle_peer_down(const RecvEvent& ev);
  /// Build this node's TelemetryFrame (runtime scalars + full registry
  /// snapshot) — also what the frame the recv loop streams contains.
  [[nodiscard]] obs::telemetry::TelemetryFrame telemetry_frame();
  void maybe_send_telemetry();
  void exec_loop();
  void exec_task(std::uint64_t task_id, const ExecTaskMsg& msg);
  /// Resolve the inputs the task's kernel reads, in input order; every
  /// remote FetchReq goes out before the first reply is awaited, so the
  /// round trips overlap. Throws Error when one cannot be had, setting
  /// `done.lost_home` when its home is down.
  std::vector<DataBuffer> acquire_inputs(const ExecTaskMsg& msg, TaskDoneMsg& done);
  /// Send one FetchReq to the input's home; nullopt when it is down.
  std::optional<InFlight> send_fetch(const TaskInput& in);
  /// Wait for the reply to `f`; throws on timeout, FetchFail or home death
  /// (which sets `done.lost_home`).
  DataBuffer await_fetch(InFlight& f, const TaskInput& in, int lane, TaskDoneMsg& done);

  std::unique_ptr<Transport> transport_;
  NodeServerConfig config_;
  BlockStore store_;
  ThreadPool pool_;
  std::atomic<bool> stop_{false};

  std::mutex exec_mutex_;
  std::condition_variable exec_cv_;
  std::deque<std::pair<std::uint64_t, ExecTaskMsg>> exec_queue_;
  bool exec_stop_ = false;
  std::thread exec_thread_;

  std::mutex fetch_mutex_;
  std::map<std::uint64_t, std::shared_ptr<PendingFetch>> pending_fetches_;
  std::atomic<std::uint64_t> next_fetch_tag_{1};

  obs::telemetry::TelemetryConfig telemetry_;
  std::uint64_t telemetry_seq_ = 0;
  std::chrono::steady_clock::time_point next_telemetry_{};

  // Report counters (recv loop + executor touch them; all atomics).
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_running_{0};
  std::atomic<std::uint64_t> fetches_served_{0};
  std::atomic<std::uint64_t> fetch_bytes_out_{0};
  std::atomic<std::uint64_t> fetches_issued_{0};
  std::atomic<std::uint64_t> fetch_bytes_in_{0};
  std::atomic<std::uint64_t> durable_fallbacks_{0};
  mutable std::mutex fetch_hist_mutex_;
  std::vector<double> fetch_seconds_;  ///< per-fetch round-trip samples
};

/// The daemon's transport: listen on `manifest.nodes[node]`, then dial
/// every lower-id peer (the mesh convention: exactly one connection per
/// worker pair; the coordinator dials everyone). Throws TransportError
/// when a peer cannot be reached before the deadline.
[[nodiscard]] std::unique_ptr<SocketTransport> make_node_transport(
    const Manifest& manifest, NodeId node, SocketTransportConfig config,
    int connect_deadline_ms = 10000);

}  // namespace dooc::net
