// In-process Transport backend: the pre-wire virtual-node discipline
// (deep-copy at every node boundary, per-node mailbox) behind the same
// Transport interface as the socket backend. Lets the coordinator,
// NodeServer and the test suite run a whole "cluster" inside one process
// with zero sockets — and lets tests simulate a node death determin-
// istically by closing one endpoint.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "net/transport.hpp"

namespace dooc::net {

class InProcTransport;

/// The shared "network": a registry of endpoints keyed by node id.
/// Endpoints created from one hub can reach each other; closing an
/// endpoint delivers PeerDown to every other endpoint, exactly like a
/// dropped connection.
class InProcHub {
 public:
  InProcHub();
  ~InProcHub();

  InProcHub(const InProcHub&) = delete;
  InProcHub& operator=(const InProcHub&) = delete;

  /// Create (and register) the endpoint for `id`. Every already-registered
  /// endpoint immediately sees PeerUp for it and vice versa — the in-proc
  /// "handshake".
  [[nodiscard]] std::unique_ptr<InProcTransport> make_endpoint(NodeId id);

 private:
  friend class InProcTransport;
  struct State;
  std::shared_ptr<State> state_;
};

class InProcTransport final : public Transport {
 public:
  ~InProcTransport() override;

  [[nodiscard]] NodeId self() const noexcept override { return self_; }
  bool send(NodeId to, Channel channel, std::uint64_t tag, DataBuffer payload) override;
  bool recv(RecvEvent& out, int timeout_ms) override;
  [[nodiscard]] std::vector<NodeId> peers() const override;
  [[nodiscard]] TransportCounters counters() const override;
  void close() override;

 private:
  friend class InProcHub;
  InProcTransport(std::shared_ptr<InProcHub::State> state, NodeId self);

  std::shared_ptr<InProcHub::State> state_;
  NodeId self_;
  mutable std::mutex counters_mutex_;
  TransportCounters counters_;
};

}  // namespace dooc::net
