// Socket-backed Transport: TCP and Unix-domain stream sockets behind a
// non-blocking poll() event loop.
//
// One background thread owns all file descriptors: it accepts new
// connections, reads whatever the kernel has (feeding FrameAssembler, so
// partial reads and coalesced frames are handled uniformly), and flushes
// per-peer outbound queues as sockets become writable. send() never
// touches a socket — it encodes the frame, appends it to the peer's
// queue and wakes the loop through a self-pipe; when a peer's queued
// bytes exceed the budget the sender blocks until the loop drains it
// (backpressure) or the send timeout expires.
//
// Connections handshake before they carry traffic: the dialing side's
// first frame is Hello{node, pid}; the acceptor registers the peer id and
// answers HelloAck. Both sides surface PeerUp afterwards. A dropped
// connection — including one that dies mid-frame — surfaces as PeerDown
// with the reason, and fails senders blocked on that peer.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/manifest.hpp"
#include "net/transport.hpp"

namespace dooc::net {

struct SocketTransportConfig {
  NodeId self = 0;
  /// Backpressure budget: queued-but-unflushed bytes per peer before
  /// send() blocks.
  std::uint64_t max_outbound_bytes_per_peer = 64ull << 20;
  /// How long send() may block on a full peer queue before throwing
  /// TransportError (0 = wait forever).
  int send_timeout_ms = 30000;
  /// Reject inbound frames with a larger payload length prefix.
  std::uint32_t max_frame_payload = kMaxFramePayload;
};

class SocketTransport final : public Transport {
 public:
  /// Daemon endpoint: bind + listen on `addr` (unix path is unlinked
  /// first), then serve. Throws TransportError when the address is taken.
  [[nodiscard]] static std::unique_ptr<SocketTransport> listen(const NodeAddress& addr,
                                                               SocketTransportConfig config);
  /// Dial-only endpoint (the coordinator/launcher).
  [[nodiscard]] static std::unique_ptr<SocketTransport> client(SocketTransportConfig config);

  ~SocketTransport() override;

  /// Dial `addr`, retrying with backoff while the peer is not up yet
  /// (connection refused / socket file missing), then handshake. Returns
  /// true once the peer is Ready; false when `deadline_ms` elapses first.
  bool connect_peer(NodeId id, const NodeAddress& addr, int deadline_ms = 10000);

  [[nodiscard]] NodeId self() const noexcept override { return config_.self; }
  bool send(NodeId to, Channel channel, std::uint64_t tag, DataBuffer payload) override;
  bool recv(RecvEvent& out, int timeout_ms) override;
  [[nodiscard]] std::vector<NodeId> peers() const override;
  [[nodiscard]] TransportCounters counters() const override;
  void close() override;

 private:
  explicit SocketTransport(SocketTransportConfig config);
  void start_loop();
  void loop();
  void wake_loop();
  // All of the below require mutex_ held.
  struct Conn;
  void handle_readable(Conn& c);
  void handle_writable(Conn& c);
  void handle_frame(Conn& c, Frame f);
  void drop_conn(int fd, const std::string& reason);
  void queue_bytes(Conn& c, std::vector<std::byte> bytes);
  void emit(RecvEvent ev);

  SocketTransportConfig config_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::string unix_path_;  ///< unlinked on close

  mutable std::mutex mutex_;
  std::condition_variable recv_cv_;   ///< inbound queue gained an event
  std::condition_variable drain_cv_;  ///< outbound drained / conn died / handshake done
  std::map<int, std::unique_ptr<Conn>> conns_;  ///< keyed by fd
  std::deque<RecvEvent> inbound_;
  TransportCounters counters_;
  bool closing_ = false;

  std::thread loop_thread_;
};

}  // namespace dooc::net
