#include "net/inproc.hpp"

#include <condition_variable>
#include <deque>

#include "common/error.hpp"

namespace dooc::net {

namespace {

struct Mailbox {
  std::deque<RecvEvent> queue;
  std::condition_variable cv;
  bool closed = false;
};

}  // namespace

struct InProcHub::State {
  std::mutex mutex;
  std::map<NodeId, std::shared_ptr<Mailbox>> endpoints;

  // Must hold mutex.
  void deliver_locked(NodeId to, RecvEvent ev) {
    auto it = endpoints.find(to);
    if (it == endpoints.end() || it->second->closed) return;
    it->second->queue.push_back(std::move(ev));
    it->second->cv.notify_one();
  }
};

InProcHub::InProcHub() : state_(std::make_shared<State>()) {}
InProcHub::~InProcHub() = default;

std::unique_ptr<InProcTransport> InProcHub::make_endpoint(NodeId id) {
  std::lock_guard lock(state_->mutex);
  DOOC_REQUIRE(state_->endpoints.count(id) == 0, "inproc endpoint id already registered");
  auto box = std::make_shared<Mailbox>();
  // Everyone already here sees the newcomer, and the newcomer sees them.
  for (auto& [peer, peer_box] : state_->endpoints) {
    if (peer_box->closed) continue;
    RecvEvent up;
    up.kind = RecvEvent::Kind::PeerUp;
    up.peer = id;
    peer_box->queue.push_back(up);
    peer_box->cv.notify_one();
    RecvEvent see;
    see.kind = RecvEvent::Kind::PeerUp;
    see.peer = peer;
    box->queue.push_back(see);
  }
  state_->endpoints.emplace(id, box);
  return std::unique_ptr<InProcTransport>(new InProcTransport(state_, id));
}

InProcTransport::InProcTransport(std::shared_ptr<InProcHub::State> state, NodeId self)
    : state_(std::move(state)), self_(self) {}

InProcTransport::~InProcTransport() { close(); }

bool InProcTransport::send(NodeId to, Channel channel, std::uint64_t tag, DataBuffer payload) {
  std::lock_guard lock(state_->mutex);
  auto self_it = state_->endpoints.find(self_);
  if (self_it == state_->endpoints.end() || self_it->second->closed) {
    throw TransportError("inproc send after close()");
  }
  auto it = state_->endpoints.find(to);
  if (it == state_->endpoints.end() || it->second->closed) return false;

  RecvEvent ev;
  ev.kind = RecvEvent::Kind::Frame;
  ev.peer = self_;
  ev.channel = channel;
  ev.tag = tag;
  // The node-boundary rule: no two nodes ever alias mutable memory.
  ev.payload = payload.clone();
  const std::size_t bytes = ev.payload.size();
  it->second->queue.push_back(std::move(ev));
  it->second->cv.notify_one();
  {
    std::lock_guard clock(counters_mutex_);
    counters_.frames_sent += 1;
    counters_.bytes_sent += bytes;
  }
  return true;
}

bool InProcTransport::recv(RecvEvent& out, int timeout_ms) {
  std::unique_lock lock(state_->mutex);
  auto it = state_->endpoints.find(self_);
  if (it == state_->endpoints.end()) return false;
  auto box = it->second;
  const auto ready = [&] { return !box->queue.empty() || box->closed; };
  if (timeout_ms < 0) {
    box->cv.wait(lock, ready);
  } else if (!box->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
    return false;
  }
  if (box->queue.empty()) return false;  // closed and drained
  out = std::move(box->queue.front());
  box->queue.pop_front();
  if (out.kind == RecvEvent::Kind::Frame) {
    std::lock_guard clock(counters_mutex_);
    counters_.frames_received += 1;
    counters_.bytes_received += out.payload.size();
  }
  return true;
}

std::vector<NodeId> InProcTransport::peers() const {
  std::lock_guard lock(state_->mutex);
  std::vector<NodeId> out;
  for (const auto& [id, box] : state_->endpoints) {
    if (id != self_ && !box->closed) out.push_back(id);
  }
  return out;
}

TransportCounters InProcTransport::counters() const {
  std::lock_guard lock(counters_mutex_);
  return counters_;
}

void InProcTransport::close() {
  std::lock_guard lock(state_->mutex);
  auto it = state_->endpoints.find(self_);
  if (it == state_->endpoints.end() || it->second->closed) return;
  it->second->closed = true;
  it->second->cv.notify_all();
  for (auto& [peer, box] : state_->endpoints) {
    if (peer == self_) continue;
    RecvEvent down;
    down.kind = RecvEvent::Kind::PeerDown;
    down.peer = self_;
    down.error = "peer closed";
    state_->deliver_locked(peer, std::move(down));
  }
}

}  // namespace dooc::net
