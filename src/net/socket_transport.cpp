#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "net/protocol.hpp"

namespace dooc::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr NodeId kUnknownPeer = INT32_MIN;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
  }
}

void set_cloexec(int fd) { (void)::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un make_unix_sockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    throw TransportError("unix socket path too long: " + path);
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

sockaddr_in make_tcp_sockaddr(const std::string& host, int port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    throw TransportError("tcp address must be a dotted IPv4 host, got '" + host + "'");
  }
  return sa;
}

}  // namespace

/// One live connection. Accepted connections stay anonymous (peer ==
/// kUnknownPeer) until their Hello frame; dialed connections know the peer
/// id up front and become ready on HelloAck.
struct SocketTransport::Conn {
  int fd = -1;
  NodeId peer = kUnknownPeer;
  std::uint64_t peer_pid = 0;
  bool dialed = false;  ///< we sent Hello, expect HelloAck
  bool ready = false;   ///< handshake complete; carries traffic
  FrameAssembler assembler;
  std::deque<std::vector<std::byte>> outbound;  ///< encoded frames
  std::size_t out_offset = 0;                   ///< sent bytes of outbound.front()
  std::uint64_t outbound_bytes = 0;
};

SocketTransport::SocketTransport(SocketTransportConfig config) : config_(config) {
  if (::pipe(wake_pipe_) != 0) {
    throw TransportError(std::string("pipe(): ") + std::strerror(errno));
  }
  for (const int fd : wake_pipe_) {
    set_nonblocking(fd);
    set_cloexec(fd);
  }
}

std::unique_ptr<SocketTransport> SocketTransport::listen(const NodeAddress& addr,
                                                         SocketTransportConfig config) {
  std::unique_ptr<SocketTransport> t(new SocketTransport(config));
  const int domain = addr.kind == NodeAddress::Kind::Unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError(std::string("socket(): ") + std::strerror(errno));
  set_cloexec(fd);
  if (addr.kind == NodeAddress::Kind::Unix) {
    (void)::unlink(addr.path.c_str());  // stale socket from a crashed run
    const sockaddr_un sa = make_unix_sockaddr(addr.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw TransportError("bind(" + addr.to_string() + "): " + err);
    }
    t->unix_path_ = addr.path;
  } else {
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in sa = make_tcp_sockaddr(addr.host, addr.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw TransportError("bind(" + addr.to_string() + "): " + err);
    }
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw TransportError("listen(" + addr.to_string() + "): " + err);
  }
  set_nonblocking(fd);
  t->listen_fd_ = fd;
  t->start_loop();
  return t;
}

std::unique_ptr<SocketTransport> SocketTransport::client(SocketTransportConfig config) {
  std::unique_ptr<SocketTransport> t(new SocketTransport(config));
  t->start_loop();
  return t;
}

SocketTransport::~SocketTransport() { close(); }

void SocketTransport::start_loop() {
  loop_thread_ = std::thread([this] { loop(); });
}

void SocketTransport::wake_loop() {
  const char b = 'w';
  (void)!::write(wake_pipe_[1], &b, 1);  // EAGAIN fine: loop wakes anyway
}

bool SocketTransport::connect_peer(NodeId id, const NodeAddress& addr, int deadline_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  int fd = -1;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      if (closing_) return false;
    }
    fd = ::socket(addr.kind == NodeAddress::Kind::Unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw TransportError(std::string("socket(): ") + std::strerror(errno));
    set_cloexec(fd);
    int rc;
    if (addr.kind == NodeAddress::Kind::Unix) {
      const sockaddr_un sa = make_unix_sockaddr(addr.path);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
    } else {
      const sockaddr_in sa = make_tcp_sockaddr(addr.host, addr.port);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
    }
    if (rc == 0) break;
    ::close(fd);
    fd = -1;
    // The peer may simply not have bound yet (daemons start concurrently).
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  set_nonblocking(fd);
  if (addr.kind == NodeAddress::Kind::Tcp) set_nodelay(fd);

  {
    std::lock_guard lock(mutex_);
    if (closing_) {
      ::close(fd);
      return false;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->peer = id;
    conn->dialed = true;
    const HelloMsg hello{config_.self, static_cast<std::uint64_t>(::getpid())};
    const DataBuffer payload = hello.encode();
    queue_bytes(*conn, encode_frame(Channel::Hello, config_.self, id, 0, payload.span()));
    conns_.emplace(fd, std::move(conn));
  }
  wake_loop();

  // Wait until the loop thread sees HelloAck (ready) or drops the conn.
  std::unique_lock lock(mutex_);
  for (;;) {
    auto it = conns_.find(fd);
    if (it == conns_.end() || closing_) return false;
    if (it->second->ready) return true;
    if (drain_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      it = conns_.find(fd);
      if (it != conns_.end() && it->second->ready) return true;
      drop_conn(fd, "handshake timeout");
      return false;
    }
  }
}

bool SocketTransport::send(NodeId to, Channel channel, std::uint64_t tag, DataBuffer payload) {
  std::unique_lock lock(mutex_);
  if (closing_) throw TransportError("send after close()");

  const auto find_ready = [&]() -> Conn* {
    for (auto& [fd, conn] : conns_) {
      if (conn->ready && conn->peer == to) return conn.get();
    }
    return nullptr;
  };
  Conn* c = find_ready();
  if (c == nullptr) return false;

  // Backpressure: block while this peer's queue is over budget. The frame
  // being sent is not counted, so one frame larger than the whole budget
  // still goes through (serialized with everything else).
  const auto deadline = Clock::now() + std::chrono::milliseconds(config_.send_timeout_ms);
  while (c->outbound_bytes >= config_.max_outbound_bytes_per_peer) {
    const bool forever = config_.send_timeout_ms <= 0;
    if (forever) {
      drain_cv_.wait(lock);
    } else if (drain_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      throw TransportError("send to node " + std::to_string(to) + " timed out after " +
                           std::to_string(config_.send_timeout_ms) + "ms (" +
                           std::to_string(c->outbound_bytes) + " bytes queued)");
    }
    if (closing_) throw TransportError("send after close()");
    c = find_ready();
    if (c == nullptr) return false;  // peer died while we waited
  }

  queue_bytes(*c, encode_frame(channel, config_.self, to, tag, payload.span()));
  counters_.frames_sent += 1;
  counters_.bytes_sent += payload.size();
  lock.unlock();
  wake_loop();
  return true;
}

bool SocketTransport::recv(RecvEvent& out, int timeout_ms) {
  std::unique_lock lock(mutex_);
  const auto ready = [&] { return !inbound_.empty() || closing_; };
  if (timeout_ms < 0) {
    recv_cv_.wait(lock, ready);
  } else if (!recv_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
    return false;
  }
  if (inbound_.empty()) return false;  // closing and drained
  out = std::move(inbound_.front());
  inbound_.pop_front();
  if (out.kind == RecvEvent::Kind::Frame) {
    counters_.frames_received += 1;
    counters_.bytes_received += out.payload.size();
  }
  return true;
}

std::vector<NodeId> SocketTransport::peers() const {
  std::lock_guard lock(mutex_);
  std::vector<NodeId> out;
  for (const auto& [fd, conn] : conns_) {
    if (conn->ready) out.push_back(conn->peer);
  }
  return out;
}

TransportCounters SocketTransport::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void SocketTransport::close() {
  {
    // Flush queued outbound frames (bounded) before tearing the loop down —
    // otherwise a Shutdown frame queued just before close() can be lost and
    // the peer never learns it should exit.
    std::unique_lock lock(mutex_);
    if (closing_) return;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    drain_cv_.wait_until(lock, deadline, [this] {
      for (const auto& [fd, conn] : conns_) {
        if (conn->outbound_bytes != 0) return false;
      }
      return true;
    });
    closing_ = true;
    recv_cv_.notify_all();
    drain_cv_.notify_all();
  }
  wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  std::lock_guard lock(mutex_);
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) (void)::unlink(unix_path_.c_str());
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void SocketTransport::queue_bytes(Conn& c, std::vector<std::byte> bytes) {
  c.outbound_bytes += bytes.size();
  c.outbound.push_back(std::move(bytes));
}

void SocketTransport::emit(RecvEvent ev) {
  inbound_.push_back(std::move(ev));
  recv_cv_.notify_one();
}

void SocketTransport::drop_conn(int fd, const std::string& reason) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.ready && c.peer != kUnknownPeer) {
    RecvEvent down;
    down.kind = RecvEvent::Kind::PeerDown;
    down.peer = c.peer;
    down.error = reason;
    emit(std::move(down));
  }
  ::close(c.fd);
  conns_.erase(it);
  // Unblock senders queued on this peer and connect_peer() waiters.
  drain_cv_.notify_all();
}

void SocketTransport::handle_frame(Conn& c, Frame f) {
  switch (f.channel()) {
    case Channel::Hello: {
      if (c.dialed || c.ready) throw FrameError("unexpected Hello on established connection");
      const HelloMsg hello = HelloMsg::decode(f.payload);
      c.peer = hello.node;
      c.peer_pid = hello.os_pid;
      c.ready = true;
      const HelloMsg ack{config_.self, static_cast<std::uint64_t>(::getpid())};
      const DataBuffer payload = ack.encode();
      queue_bytes(c, encode_frame(Channel::HelloAck, config_.self, c.peer, 0, payload.span()));
      RecvEvent up;
      up.kind = RecvEvent::Kind::PeerUp;
      up.peer = c.peer;
      up.peer_pid = c.peer_pid;
      emit(std::move(up));
      drain_cv_.notify_all();
      return;
    }
    case Channel::HelloAck: {
      if (!c.dialed || c.ready) throw FrameError("unexpected HelloAck");
      const HelloMsg ack = HelloMsg::decode(f.payload);
      if (ack.node != c.peer) {
        throw FrameError("handshake mismatch: dialed node " + std::to_string(c.peer) +
                         ", peer claims to be node " + std::to_string(ack.node));
      }
      c.peer_pid = ack.os_pid;
      c.ready = true;
      RecvEvent up;
      up.kind = RecvEvent::Kind::PeerUp;
      up.peer = c.peer;
      up.peer_pid = c.peer_pid;
      emit(std::move(up));
      drain_cv_.notify_all();  // connect_peer() is waiting on ready
      return;
    }
    default: {
      if (!c.ready) throw FrameError("frame before handshake");
      RecvEvent ev;
      ev.kind = RecvEvent::Kind::Frame;
      ev.peer = c.peer;
      ev.channel = f.channel();
      ev.tag = f.header.tag;
      ev.payload = std::move(f.payload);
      emit(std::move(ev));
      return;
    }
  }
}

void SocketTransport::handle_readable(Conn& c) {
  std::byte buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      // Throws FrameError on a corrupt stream; caller drops the conn.
      c.assembler.feed(std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
      Frame f;
      while (c.assembler.next(f)) handle_frame(c, std::move(f));
      if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained
      continue;
    }
    if (n == 0) {
      const bool mid_frame = c.assembler.in_frame();
      throw FrameError(mid_frame ? "connection closed mid-frame" : "peer closed connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    throw FrameError(std::string("recv(): ") + std::strerror(errno));
  }
}

void SocketTransport::handle_writable(Conn& c) {
  while (!c.outbound.empty()) {
    const std::vector<std::byte>& front = c.outbound.front();
    const ssize_t n = ::send(c.fd, front.data() + c.out_offset, front.size() - c.out_offset,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      throw FrameError(std::string("send(): ") + std::strerror(errno));
    }
    c.out_offset += static_cast<std::size_t>(n);
    c.outbound_bytes -= static_cast<std::uint64_t>(n);
    if (c.out_offset == front.size()) {
      c.outbound.pop_front();
      c.out_offset = 0;
    }
  }
  drain_cv_.notify_all();  // budget freed; wake blocked senders
}

void SocketTransport::loop() {
  std::vector<pollfd> fds;
  std::vector<int> conn_fds;
  for (;;) {
    fds.clear();
    conn_fds.clear();
    {
      std::lock_guard lock(mutex_);
      if (closing_) return;
      fds.push_back({wake_pipe_[0], POLLIN, 0});
      if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
      for (const auto& [fd, conn] : conns_) {
        short events = POLLIN;
        if (!conn->outbound.empty()) events |= POLLOUT;
        fds.push_back({fd, events, 0});
        conn_fds.push_back(fd);
      }
    }
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) return;  // unrecoverable; close() follows
    if (rc <= 0) continue;

    std::lock_guard lock(mutex_);
    if (closing_) return;
    std::size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char scratch[256];
      while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
      }
    }
    ++idx;
    if (listen_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) {
        for (;;) {
          const int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          set_cloexec(cfd);
          auto conn = std::make_unique<Conn>();
          conn->fd = cfd;
          conns_.emplace(cfd, std::move(conn));
        }
      }
      ++idx;
    }
    for (std::size_t i = 0; i < conn_fds.size(); ++i, ++idx) {
      const int fd = conn_fds[i];
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // dropped earlier this pass
      const short revents = fds[idx].revents;
      try {
        if (revents & POLLIN) handle_readable(*it->second);
        it = conns_.find(fd);
        if (it == conns_.end()) continue;
        if (revents & POLLOUT) handle_writable(*it->second);
        it = conns_.find(fd);
        if (it == conns_.end()) continue;
        if ((revents & (POLLERR | POLLHUP)) && !(revents & POLLIN)) {
          const bool mid_frame = it->second->assembler.in_frame();
          drop_conn(fd, mid_frame ? "connection reset mid-frame" : "connection reset");
        }
      } catch (const FrameError& e) {
        drop_conn(fd, e.what());
      }
    }
  }
}

}  // namespace dooc::net
