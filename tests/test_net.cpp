// dooc::net tests: wire framing + CRC, hostile/malformed payload decoding,
// the in-process hub, real Unix/TCP socket loopback (handshake, partial
// reads, mid-frame disconnects), and in-process NodeServer/Coordinator
// clusters: bitwise parity with the single-process engine, failover after
// a node dies mid-run, and a task that exhausts its retries.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include <gtest/gtest.h>

#include "common/serialize.hpp"
#include "net/block_store.hpp"
#include "net/coordinator.hpp"
#include "net/inproc.hpp"
#include "net/launch.hpp"
#include "net/manifest.hpp"
#include "net/node_server.hpp"
#include "net/protocol.hpp"
#include "net/socket_transport.hpp"
#include "net/spmv_job.hpp"
#include "net/wire.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

using namespace std::chrono_literals;

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
  return v;
}

DataBuffer pattern_buffer(std::size_t n) {
  const auto v = pattern_bytes(n);
  return DataBuffer::copy_of(v.data(), v.size());
}

/// Drain events until one of `kind` arrives (or the deadline passes).
bool wait_for(net::Transport& t, net::RecvEvent::Kind kind, net::RecvEvent& out,
              int total_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(total_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    net::RecvEvent ev;
    if (!t.recv(ev, 100)) continue;
    if (ev.kind == kind) {
      out = std::move(ev);
      return true;
    }
  }
  return false;
}

TEST(NetLaunch, CodecSpecOtherThanOffIsRejected) {
  // Blocks are always stored raw, so a request for compression fails
  // loudly instead of being ignored.
  net::LaunchConfig cfg;
  cfg.codec_spec = "adaptive";
  EXPECT_THROW(net::ClusterLauncher{cfg}, InvalidArgument);
  for (const char* off : {"", "off"}) {
    cfg.codec_spec = off;
    EXPECT_NO_THROW(net::ClusterLauncher{cfg}) << off;
  }
}

// ---------------------------------------------------------------- wire --

TEST(NetManifest, TcpPortIsAWholeIntegerInRange) {
  EXPECT_EQ(net::NodeAddress::parse("tcp:127.0.0.1:7400").port, 7400);
  for (const char* bad : {"tcp:h:80x", "tcp:h:0", "tcp:h:70000", "tcp:h:-1", "tcp:h:0x50"}) {
    EXPECT_THROW((void)net::NodeAddress::parse(bad), InvalidArgument) << bad;
  }
}

TEST(NetWire, Crc32KnownValue) {
  const char* s = "123456789";
  EXPECT_EQ(net::crc32(std::span(reinterpret_cast<const std::byte*>(s), 9)), 0xCBF43926u);
  EXPECT_EQ(net::crc32({}), 0u);
}

TEST(NetWire, HeaderRoundTrip) {
  net::FrameHeader h;
  h.channel = static_cast<std::uint16_t>(net::Channel::FetchOk);
  h.src = 3;
  h.dst = net::kCoordinatorId;
  h.tag = 0xDEADBEEFCAFEull;
  h.payload_len = 12345;
  h.payload_crc = 0xA5A5A5A5u;

  std::byte raw[net::kFrameHeaderBytes];
  net::encode_header(h, raw);
  const net::FrameHeader d = net::decode_header(raw);
  EXPECT_EQ(d.magic, net::kFrameMagic);
  EXPECT_EQ(d.version, net::kProtocolVersion);
  EXPECT_EQ(d.channel, h.channel);
  EXPECT_EQ(d.src, 3);
  EXPECT_EQ(d.dst, net::kCoordinatorId);
  EXPECT_EQ(d.tag, h.tag);
  EXPECT_EQ(d.payload_len, 12345u);
  EXPECT_EQ(d.payload_crc, 0xA5A5A5A5u);
}

TEST(NetWire, HeaderRejectsBadMagicVersionChannelLength) {
  net::FrameHeader h;
  h.channel = static_cast<std::uint16_t>(net::Channel::Hello);
  std::byte raw[net::kFrameHeaderBytes];

  net::encode_header(h, raw);
  raw[0] = static_cast<std::byte>(0x00);  // corrupt magic
  EXPECT_THROW((void)net::decode_header(raw), net::FrameError);

  h.version = net::kProtocolVersion + 1;
  net::encode_header(h, raw);
  EXPECT_THROW((void)net::decode_header(raw), net::FrameError);
  h.version = net::kProtocolVersion;

  h.channel = 99;  // not a Channel
  net::encode_header(h, raw);
  EXPECT_THROW((void)net::decode_header(raw), net::FrameError);
  h.channel = static_cast<std::uint16_t>(net::Channel::Hello);

  // A hostile length prefix is rejected before any allocation.
  h.payload_len = 2048;
  net::encode_header(h, raw);
  EXPECT_THROW((void)net::decode_header(raw, /*max_payload=*/1024), net::FrameError);
}

TEST(NetWire, AssemblerRoundTripCoalescedFrames) {
  const auto p1 = pattern_bytes(100);
  const auto p2 = pattern_bytes(0);
  const auto p3 = pattern_bytes(7);
  auto bytes = net::encode_frame(net::Channel::PutBlock, 1, 2, 11, p1);
  const auto f2 = net::encode_frame(net::Channel::Shutdown, 1, 2, 0, p2);
  const auto f3 = net::encode_frame(net::Channel::FetchReq, 1, 2, 13, p3);
  bytes.insert(bytes.end(), f2.begin(), f2.end());
  bytes.insert(bytes.end(), f3.begin(), f3.end());

  net::FrameAssembler a;
  a.feed(bytes);  // three frames in one read
  EXPECT_EQ(a.frames_ready(), 3u);
  EXPECT_FALSE(a.in_frame());

  net::Frame f;
  ASSERT_TRUE(a.next(f));
  EXPECT_EQ(f.channel(), net::Channel::PutBlock);
  EXPECT_EQ(f.header.tag, 11u);
  ASSERT_EQ(f.payload.size(), p1.size());
  EXPECT_EQ(std::memcmp(f.payload.data(), p1.data(), p1.size()), 0);
  ASSERT_TRUE(a.next(f));
  EXPECT_EQ(f.channel(), net::Channel::Shutdown);
  EXPECT_EQ(f.payload.size(), 0u);
  ASSERT_TRUE(a.next(f));
  EXPECT_EQ(f.channel(), net::Channel::FetchReq);
  EXPECT_EQ(f.header.tag, 13u);
  EXPECT_FALSE(a.next(f));
}

TEST(NetWire, AssemblerByteByByteReassembly) {
  const auto payload = pattern_bytes(53);
  const auto bytes = net::encode_frame(net::Channel::ExecTask, 0, 3, 99, payload);

  net::FrameAssembler a;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    a.feed({&bytes[i], 1});
    EXPECT_EQ(a.frames_ready(), 0u);
    EXPECT_TRUE(a.in_frame());
  }
  a.feed({&bytes.back(), 1});
  EXPECT_FALSE(a.in_frame());
  net::Frame f;
  ASSERT_TRUE(a.next(f));
  EXPECT_EQ(f.channel(), net::Channel::ExecTask);
  ASSERT_EQ(f.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(f.payload.data(), payload.data(), payload.size()), 0);
}

TEST(NetWire, AssemblerLargePayloadChunkedFeed) {
  const std::size_t n = 300 * 1024;  // well past one 64 KiB socket read
  const auto payload = pattern_bytes(n);
  const auto bytes = net::encode_frame(net::Channel::FetchOk, 2, 0, 1, payload);

  net::FrameAssembler a;
  const std::size_t chunk = 4093;  // deliberately unaligned
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    a.feed({bytes.data() + off, std::min(chunk, bytes.size() - off)});
  }
  net::Frame f;
  ASSERT_TRUE(a.next(f));
  ASSERT_EQ(f.payload.size(), n);
  EXPECT_EQ(std::memcmp(f.payload.data(), payload.data(), n), 0);
}

TEST(NetWire, AssemblerDetectsCorruptPayload) {
  const auto payload = pattern_bytes(64);
  auto bytes = net::encode_frame(net::Channel::PutBlock, 0, 1, 5, payload);
  bytes[net::kFrameHeaderBytes + 10] ^= static_cast<std::byte>(0xFF);
  net::FrameAssembler a;
  EXPECT_THROW(a.feed(bytes), net::FrameError);  // CRC mismatch
}

TEST(NetWire, AssemblerRejectsOversizedLengthPrefix) {
  net::FrameHeader h;
  h.channel = static_cast<std::uint16_t>(net::Channel::PutBlock);
  h.payload_len = 1u << 20;
  std::byte raw[net::kFrameHeaderBytes];
  net::encode_header(h, raw);
  net::FrameAssembler a(/*max_payload=*/1024);
  EXPECT_THROW(a.feed(raw), net::FrameError);
}

TEST(NetWire, AssemblerReportsMidFrameStreams) {
  const auto bytes = net::encode_frame(net::Channel::TaskDone, 1, -1, 3, pattern_bytes(40));
  {
    net::FrameAssembler a;  // stopped inside the header
    a.feed({bytes.data(), 16});
    EXPECT_TRUE(a.in_frame());
  }
  {
    net::FrameAssembler a;  // stopped inside the payload
    a.feed({bytes.data(), net::kFrameHeaderBytes + 8});
    EXPECT_TRUE(a.in_frame());
    net::Frame f;
    EXPECT_FALSE(a.next(f));
  }
}

// ------------------------------------------------------------ protocol --

TEST(NetProtocol, MessageRoundTrips) {
  {
    const net::HelloMsg m{7, 4242};
    const auto d = net::HelloMsg::decode(m.encode());
    EXPECT_EQ(d.node, 7);
    EXPECT_EQ(d.os_pid, 4242u);
  }
  {
    net::PutBlockMsg m;
    m.name = "A_{1,2}";
    m.durable_elsewhere = true;
    m.bytes = pattern_buffer(129);
    const auto d = net::PutBlockMsg::decode(m.encode());
    EXPECT_EQ(d.name, "A_{1,2}");
    EXPECT_TRUE(d.durable_elsewhere);
    ASSERT_EQ(d.bytes.size(), 129u);
    EXPECT_EQ(std::memcmp(d.bytes.data(), m.bytes.data(), 129), 0);
  }
  {
    net::FetchFailMsg m{"x^3", "no such block"};
    const auto d = net::FetchFailMsg::decode(m.encode());
    EXPECT_EQ(d.name, "x^3");
    EXPECT_EQ(d.error, "no such block");
  }
  {
    net::ExecTaskMsg m;
    m.name = "x_{0,1}^2";
    m.kind = "multiply";
    m.inputs = {{"A_{0,1}", 4096, 1}, {"x^1_1", 512, net::kDurableOnly}};
    m.outputs = {{"x_{0,1}^2", 512}};
    const auto d = net::ExecTaskMsg::decode(m.encode());
    EXPECT_EQ(d.name, m.name);
    EXPECT_EQ(d.kind, "multiply");
    ASSERT_EQ(d.inputs.size(), 2u);
    EXPECT_EQ(d.inputs[0].array, "A_{0,1}");
    EXPECT_EQ(d.inputs[1].home, net::kDurableOnly);
    ASSERT_EQ(d.outputs.size(), 1u);
    EXPECT_EQ(d.outputs[0].bytes, 512u);
  }
  {
    net::TaskDoneMsg m;
    m.ok = false;
    m.error = "kernel blew up";
    m.fetched_bytes = 9;
    m.durable_fallbacks = 2;
    m.exec_seconds = 0.25;
    const auto d = net::TaskDoneMsg::decode(m.encode());
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.error, "kernel blew up");
    EXPECT_EQ(d.fetched_bytes, 9u);
    EXPECT_EQ(d.durable_fallbacks, 2u);
    EXPECT_DOUBLE_EQ(d.exec_seconds, 0.25);
  }
  {
    net::NodeReportMsg m;
    m.os_pid = 31337;
    m.tasks_executed = 12;
    m.fetch_bytes_in = 777;
    m.fetch_p99_s = 0.125;
    m.trace_path = "/tmp/traces/node2.json";
    const auto d = net::NodeReportMsg::decode(m.encode());
    EXPECT_EQ(d.os_pid, 31337u);
    EXPECT_EQ(d.tasks_executed, 12u);
    EXPECT_EQ(d.fetch_bytes_in, 777u);
    EXPECT_DOUBLE_EQ(d.fetch_p99_s, 0.125);
    EXPECT_EQ(d.trace_path, "/tmp/traces/node2.json");
  }
}

TEST(NetProtocol, EveryTruncationThrowsTypedError) {
  net::ExecTaskMsg m;
  m.name = "task";
  m.kind = "sum";
  m.inputs = {{"a", 8, 0}, {"b", 8, 1}};
  m.outputs = {{"c", 8}};
  const DataBuffer full = m.encode();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const DataBuffer cut = DataBuffer::copy_of(full.data(), len);
    EXPECT_THROW((void)net::ExecTaskMsg::decode(cut), net::FrameError) << "prefix " << len;
  }

  net::NodeReportMsg rep;
  rep.trace_path = "/t/n0.json";
  const DataBuffer rfull = rep.encode();
  for (std::size_t len = 0; len < rfull.size(); ++len) {
    const DataBuffer cut = DataBuffer::copy_of(rfull.data(), len);
    EXPECT_THROW((void)net::NodeReportMsg::decode(cut), net::FrameError) << "prefix " << len;
  }
}

TEST(NetProtocol, HostileStringLengthRejectedBeforeAllocation) {
  BinaryWriter w;
  w.put<std::uint64_t>(1ull << 40);  // claims a 1 TiB name
  w.put<std::uint8_t>('x');
  EXPECT_THROW((void)net::FetchReqMsg::decode(w.take()), net::FrameError);
}

TEST(NetProtocol, HostileElementCountsRejected) {
  {
    BinaryWriter w;  // count over the absolute element cap
    w.put_string("t");
    w.put_string("sum");
    w.put<std::uint64_t>(1ull << 30);  // inputs count
    EXPECT_THROW((void)net::ExecTaskMsg::decode(w.take()), net::FrameError);
  }
  {
    BinaryWriter w;  // plausible count, but more than the payload can hold
    w.put_string("t");
    w.put_string("sum");
    w.put<std::uint64_t>(1000);
    w.put<std::uint64_t>(0);  // a few stray bytes, nowhere near 1000 inputs
    EXPECT_THROW((void)net::ExecTaskMsg::decode(w.take()), net::FrameError);
  }
}

// -------------------------------------------------------------- in-proc --

TEST(NetInProc, HandshakeRoundTripAndDeepCopy) {
  net::InProcHub hub;
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);

  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*a, net::RecvEvent::Kind::PeerUp, ev));
  EXPECT_EQ(ev.peer, 1);
  ASSERT_TRUE(wait_for(*b, net::RecvEvent::Kind::PeerUp, ev));
  EXPECT_EQ(ev.peer, 0);
  EXPECT_TRUE(a->peer_up(1));
  EXPECT_FALSE(a->peer_up(7));

  DataBuffer payload = pattern_buffer(32);
  ASSERT_TRUE(a->send(1, net::Channel::PutBlock, 42, payload));
  payload.data()[0] = static_cast<std::byte>(0xEE);  // sender-side mutation
  ASSERT_TRUE(wait_for(*b, net::RecvEvent::Kind::Frame, ev));
  EXPECT_EQ(ev.channel, net::Channel::PutBlock);
  EXPECT_EQ(ev.tag, 42u);
  const auto expect = pattern_bytes(32);
  ASSERT_EQ(ev.payload.size(), 32u);
  // Deep-copy boundary: the receiver sees the bytes as sent, not the
  // sender's later mutation.
  EXPECT_EQ(std::memcmp(ev.payload.data(), expect.data(), 32), 0);

  EXPECT_FALSE(a->send(9, net::Channel::PutBlock, 1, pattern_buffer(4)));

  const auto ca = a->counters();
  EXPECT_EQ(ca.frames_sent, 1u);
  EXPECT_EQ(ca.bytes_sent, 32u);
}

TEST(NetInProc, CloseDeliversPeerDown) {
  net::InProcHub hub;
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*a, net::RecvEvent::Kind::PeerUp, ev));

  b->close();  // simulated node death
  ASSERT_TRUE(wait_for(*a, net::RecvEvent::Kind::PeerDown, ev));
  EXPECT_EQ(ev.peer, 1);
  EXPECT_FALSE(a->peer_up(1));
  EXPECT_FALSE(a->send(1, net::Channel::FetchReq, 1, pattern_buffer(4)));
}

// -------------------------------------------------------------- sockets --

TEST(NetSocket, UnixHandshakeFramesAndCounters) {
  testutil::TempDir dir("net_unix");
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir.str() + "/n0.sock";

  net::SocketTransportConfig scfg;
  scfg.self = 0;
  auto server = net::SocketTransport::listen(addr, scfg);

  net::SocketTransportConfig ccfg;
  ccfg.self = net::kCoordinatorId;
  auto client = net::SocketTransport::client(ccfg);
  ASSERT_TRUE(client->connect_peer(0, addr));

  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerUp, ev));
  EXPECT_EQ(ev.peer, net::kCoordinatorId);
  EXPECT_EQ(ev.peer_pid, static_cast<std::uint64_t>(::getpid()));
  ASSERT_TRUE(wait_for(*client, net::RecvEvent::Kind::PeerUp, ev));
  EXPECT_EQ(ev.peer, 0);
  EXPECT_TRUE(client->peer_up(0));

  // client -> server, then server -> client.
  ASSERT_TRUE(client->send(0, net::Channel::PutBlock, 7, pattern_buffer(100)));
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::Frame, ev));
  EXPECT_EQ(ev.channel, net::Channel::PutBlock);
  EXPECT_EQ(ev.tag, 7u);
  ASSERT_EQ(ev.payload.size(), 100u);
  const auto expect = pattern_bytes(100);
  EXPECT_EQ(std::memcmp(ev.payload.data(), expect.data(), 100), 0);

  ASSERT_TRUE(server->send(net::kCoordinatorId, net::Channel::TaskDone, 7, pattern_buffer(8)));
  ASSERT_TRUE(wait_for(*client, net::RecvEvent::Kind::Frame, ev));
  EXPECT_EQ(ev.channel, net::Channel::TaskDone);

  EXPECT_FALSE(client->send(42, net::Channel::PutBlock, 1, pattern_buffer(4)));

  // Handshake frames are excluded from traffic counters.
  const auto cc = client->counters();
  EXPECT_EQ(cc.frames_sent, 1u);
  EXPECT_EQ(cc.bytes_sent, 100u);
  EXPECT_EQ(cc.frames_received, 1u);
  EXPECT_EQ(cc.bytes_received, 8u);

  client->close();
  server->close();
}

TEST(NetSocket, LargeFrameCrossesPartialReads) {
  testutil::TempDir dir("net_big");
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir.str() + "/n0.sock";

  auto server = net::SocketTransport::listen(addr, {.self = 0});
  auto client = net::SocketTransport::client({.self = net::kCoordinatorId});
  ASSERT_TRUE(client->connect_peer(0, addr));

  const std::size_t n = 300 * 1024;  // forces multiple 64 KiB reads
  ASSERT_TRUE(client->send(0, net::Channel::FetchOk, 3, pattern_buffer(n)));
  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::Frame, ev, 10000));
  ASSERT_EQ(ev.payload.size(), n);
  const auto expect = pattern_bytes(n);
  EXPECT_EQ(std::memcmp(ev.payload.data(), expect.data(), n), 0);

  client->close();
  server->close();
}

TEST(NetSocket, CleanPeerCloseSurfacesPeerDown) {
  testutil::TempDir dir("net_down");
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir.str() + "/n0.sock";

  auto server = net::SocketTransport::listen(addr, {.self = 0});
  auto client = net::SocketTransport::client({.self = net::kCoordinatorId});
  ASSERT_TRUE(client->connect_peer(0, addr));
  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerUp, ev));

  client->close();
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerDown, ev));
  EXPECT_EQ(ev.peer, net::kCoordinatorId);
  EXPECT_NE(ev.error.find("closed"), std::string::npos) << ev.error;
  EXPECT_FALSE(server->peer_up(net::kCoordinatorId));
  server->close();
}

TEST(NetSocket, DisconnectMidFrameReportsTruncation) {
  testutil::TempDir dir("net_trunc");
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir.str() + "/n0.sock";
  auto server = net::SocketTransport::listen(addr, {.self = 0});

  // Raw client: handshake by hand, then die inside a frame.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
  // The listener is already up; a brief retry absorbs scheduler jitter.
  int rc = -1;
  for (int i = 0; i < 50 && rc != 0; ++i) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (rc != 0) std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(rc, 0);

  const net::HelloMsg hello{7, static_cast<std::uint64_t>(::getpid())};
  const DataBuffer hp = hello.encode();
  const auto hf = net::encode_frame(net::Channel::Hello, 7, 0, 0, hp.span());
  ASSERT_EQ(::send(fd, hf.data(), hf.size(), 0), static_cast<ssize_t>(hf.size()));

  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerUp, ev));
  EXPECT_EQ(ev.peer, 7);

  // Drain the HelloAck; unread bytes at close() would turn the EOF into a
  // connection reset.
  {
    std::byte ack[256];
    std::size_t got = 0;
    const std::size_t want = net::kFrameHeaderBytes + hp.size();
    while (got < want) {
      const ssize_t n = ::recv(fd, ack + got, sizeof(ack) - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
  }

  // 16 bytes: half a frame header, then EOF.
  const auto partial = pattern_bytes(16);
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0), 16);
  std::this_thread::sleep_for(50ms);  // let the loop ingest the fragment
  ::close(fd);

  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerDown, ev));
  EXPECT_EQ(ev.peer, 7);
  EXPECT_NE(ev.error.find("mid-frame"), std::string::npos) << ev.error;
  server->close();
}

TEST(NetSocket, HandshakeIdentityMismatchFailsConnect) {
  testutil::TempDir dir("net_mismatch");
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir.str() + "/n0.sock";
  auto server = net::SocketTransport::listen(addr, {.self = 0});
  auto client = net::SocketTransport::client({.self = net::kCoordinatorId});
  // The listener identifies as node 0; expecting node 3 must not yield a
  // ready peer.
  EXPECT_FALSE(client->connect_peer(3, addr, /*deadline_ms=*/1000));
  EXPECT_FALSE(client->peer_up(3));
  client->close();
  server->close();
}

TEST(NetSocket, TcpLoopbackRoundTrip) {
  // Derive a port from the pid to keep parallel test runs off each other.
  const int port = 7900 + static_cast<int>(::getpid() % 800);
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Tcp;
  addr.host = "127.0.0.1";
  addr.port = port;

  auto server = net::SocketTransport::listen(addr, {.self = 0});
  auto client = net::SocketTransport::client({.self = net::kCoordinatorId});
  ASSERT_TRUE(client->connect_peer(0, addr));

  ASSERT_TRUE(client->send(0, net::Channel::ReportReq, 5, DataBuffer{}));
  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::Frame, ev));
  EXPECT_EQ(ev.channel, net::Channel::ReportReq);
  EXPECT_EQ(ev.tag, 5u);
  client->close();
  server->close();
}

// -------------------------------------------- in-proc cluster end-to-end --

/// A node endpoint that can die mid-run: kill() closes the wrapped
/// endpoint (every peer sees PeerDown) and from then on the node sends and
/// receives nothing, as a dead process would. A stopped NodeServer may
/// still be finishing queued work; its sends are dropped rather than
/// hitting the closed endpoint.
class KillableEndpoint final : public net::Transport {
 public:
  explicit KillableEndpoint(std::unique_ptr<net::InProcTransport> inner)
      : inner_(std::move(inner)) {}

  void kill() {
    std::lock_guard lock(mutex_);
    killed_.store(true);
    inner_->close();
  }
  [[nodiscard]] std::uint64_t tasks_done_sent() const { return tasks_done_sent_.load(); }

  [[nodiscard]] net::NodeId self() const noexcept override { return inner_->self(); }
  bool send(net::NodeId to, net::Channel channel, std::uint64_t tag,
            DataBuffer payload) override {
    std::lock_guard lock(mutex_);
    if (killed_.load() || !inner_->send(to, channel, tag, std::move(payload))) return false;
    if (channel == net::Channel::TaskDone) tasks_done_sent_.fetch_add(1);
    return true;
  }
  bool recv(net::RecvEvent& out, int timeout_ms) override {
    if (killed_.load()) return false;
    return inner_->recv(out, timeout_ms) && !killed_.load();
  }
  [[nodiscard]] std::vector<net::NodeId> peers() const override { return inner_->peers(); }
  [[nodiscard]] bool peer_up(net::NodeId id) const override { return inner_->peer_up(id); }
  [[nodiscard]] net::TransportCounters counters() const override { return inner_->counters(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::InProcTransport> inner_;
  std::mutex mutex_;  ///< orders kill() against in-progress sends
  std::atomic<bool> killed_{false};
  std::atomic<std::uint64_t> tasks_done_sent_{0};
};

/// `nodes` NodeServers on one InProcHub, sharing a durable directory, each
/// serving on its own thread. Destruction stops and joins them, so a
/// failed assertion never leaves a joinable thread behind.
class InProcCluster {
 public:
  explicit InProcCluster(int nodes) : coord_ep_(hub_.make_endpoint(net::kCoordinatorId)) {
    for (int i = 0; i < nodes; ++i) {
      auto ep = std::make_unique<KillableEndpoint>(hub_.make_endpoint(i));
      endpoints_.push_back(ep.get());
      net::NodeServerConfig scfg;
      scfg.node = i;
      scfg.durable_dir = durable_.str();
      servers_.push_back(std::make_unique<net::NodeServer>(std::move(ep), scfg));
    }
    for (auto& s : servers_) threads_.emplace_back([&s] { s->run(); });
    config_.num_nodes = nodes;
    config_.durable_dir = durable_.str();
  }
  ~InProcCluster() {
    for (auto& s : servers_) s->stop();
    for (auto& t : threads_) t.join();
    coord_ep_->close();
  }
  InProcCluster(const InProcCluster&) = delete;
  InProcCluster& operator=(const InProcCluster&) = delete;

  [[nodiscard]] net::Transport& coord_endpoint() { return *coord_ep_; }
  [[nodiscard]] const net::CoordinatorConfig& coord_config() const { return config_; }
  [[nodiscard]] std::string durable_dir() const { return durable_.str(); }
  /// Node `i` dies: its server stops and every peer sees PeerDown.
  void kill(int i) {
    servers_[i]->stop();
    endpoints_[i]->kill();
  }
  [[nodiscard]] std::uint64_t tasks_done_sent(int i) const {
    return endpoints_[i]->tasks_done_sent();
  }

 private:
  testutil::TempDir durable_{"net_durable"};
  net::InProcHub hub_;
  std::unique_ptr<net::InProcTransport> coord_ep_;
  std::vector<KillableEndpoint*> endpoints_;
  std::vector<std::unique_ptr<net::NodeServer>> servers_;
  std::vector<std::thread> threads_;
  net::CoordinatorConfig config_;
};

TEST(NetCluster, InProcSpmvMatchesSingleProcessEngine) {
  testutil::TempDir scratch("net_scratch");
  InProcCluster cluster(2);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 2;
  jcfg.iterations = 2;
  jcfg.num_nodes = 2;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.tasks_executed, run.tasks_total);
  EXPECT_TRUE(run.dead_nodes.empty());

  const std::vector<double> wire = job.gather(coord);
  const std::vector<double> expect = job.reference(scratch.str());
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size() * sizeof(double)), 0)
      << "wire backend result is not bitwise identical";
  coord.shutdown_cluster();
}

TEST(NetCluster, InProcFailoverAfterANodeDiesMatchesSingleProcessEngine) {
  testutil::TempDir scratch("net_fail_scratch");
  const int kNodes = 3;
  const net::NodeId kVictim = 2;
  InProcCluster cluster(kNodes);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 3;
  jcfg.iterations = 2;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();

  // The victim dies after a few completions, once it has run a task of
  // its own (so its deployed blocks are already durable).
  bool killed = false;
  coord.progress_hook = [&](std::uint64_t done) {
    if (killed || done < 4 || cluster.tasks_done_sent(kVictim) == 0) return;
    killed = true;
    cluster.kill(kVictim);
  };
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(killed) << "the victim never ran a task";
  EXPECT_EQ(run.tasks_executed, run.tasks_total);
  EXPECT_EQ(run.dead_nodes, std::vector<net::NodeId>{kVictim});

  const std::vector<double> wire = job.gather(coord);
  const std::vector<double> expect = job.reference(scratch.str());
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size() * sizeof(double)), 0)
      << "result after failover is not bitwise identical";
  coord.shutdown_cluster();
}

TEST(NetCluster, UnreadableInputFailsTheRunAndNeverDispatchesItsSuccessor) {
  InProcCluster cluster(2);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  // "ghost" has a registered home but was never stored there, and no
  // durable file exists: every attempt of its reader fails.
  coord.register_array("ghost", 1);
  sched::TaskGraph graph;
  sched::Task reader;
  reader.name = "reads_ghost";
  reader.kind = "sum";
  reader.inputs = {{"ghost", 0, 64}};
  reader.outputs = {{"y", 0, 64}};
  reader.preferred_node = 0;
  graph.add(reader);
  sched::Task successor;
  successor.name = "successor";
  successor.kind = "sum";
  successor.inputs = {{"y", 0, 64}};
  successor.outputs = {{"z", 0, 64}};
  successor.preferred_node = 1;
  graph.add(successor);
  graph.build();

  const net::RunResult run = coord.run(graph);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("reads_ghost"), std::string::npos) << run.error;
  EXPECT_GT(run.retries, 0u);
  EXPECT_EQ(run.tasks_executed, 0u);
  // Apart from one deploy Barrier per node, every frame the coordinator
  // sent was an attempt of the failing reader.
  EXPECT_EQ(cluster.coord_endpoint().counters().frames_sent, 2 + run.retries + 1);
  EXPECT_FALSE(std::filesystem::exists(net::BlockStore::durable_path(cluster.durable_dir(), "z")));
  coord.shutdown_cluster();
}

TEST(NetCluster, RunDispatchesOnlyAfterEveryDaemonAcksTheDeployBarrier) {
  // A scripted daemon on node 0: it sees its PutBlock, then the Barrier,
  // and no ExecTask may arrive before it answers with BarrierAck.
  net::InProcHub hub;
  auto coord_ep = hub.make_endpoint(net::kCoordinatorId);
  auto node_ep = hub.make_endpoint(0);
  net::CoordinatorConfig ccfg;
  ccfg.num_nodes = 1;
  ccfg.idle_timeout_ms = 300;
  net::Coordinator coord(*coord_ep, ccfg);
  ASSERT_TRUE(coord.put_block(0, "a", pattern_buffer(64)));
  sched::TaskGraph graph;
  sched::Task task;
  task.name = "reads_a";
  task.kind = "sum";
  task.inputs = {{"a", 0, 64}};
  task.outputs = {{"y", 0, 64}};
  task.preferred_node = 0;
  graph.add(task);
  graph.build();

  const auto next_frame = [&](int timeout_ms) -> std::optional<net::RecvEvent> {
    net::RecvEvent ev;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (node_ep->recv(ev, 20) && ev.kind == net::RecvEvent::Kind::Frame) return ev;
    }
    return std::nullopt;
  };
  auto put = next_frame(1000);
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->channel, net::Channel::PutBlock);

  // No ack: the run fails at the barrier and dispatches nothing.
  net::RunResult silent;
  std::thread first([&] { silent = coord.run(graph); });
  auto barrier = next_frame(1000);
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(barrier->channel, net::Channel::Barrier);
  first.join();
  EXPECT_FALSE(silent.ok);
  EXPECT_NE(silent.error.find("deploy barrier"), std::string::npos) << silent.error;
  EXPECT_FALSE(next_frame(100).has_value()) << "an ExecTask went out before the ack";

  // Acked: dispatch follows the ack.
  net::RunResult acked;
  std::thread second([&] { acked = coord.run(graph); });
  barrier = next_frame(1000);
  ASSERT_TRUE(barrier.has_value());
  ASSERT_EQ(barrier->channel, net::Channel::Barrier);
  EXPECT_FALSE(next_frame(100).has_value()) << "an ExecTask went out before the ack";
  ASSERT_TRUE(node_ep->send(net::kCoordinatorId, net::Channel::BarrierAck, barrier->tag, {}));
  const auto exec = next_frame(1000);
  ASSERT_TRUE(exec.has_value());
  EXPECT_EQ(exec->channel, net::Channel::ExecTask);
  net::TaskDoneMsg done;
  done.ok = true;
  ASSERT_TRUE(
      node_ep->send(net::kCoordinatorId, net::Channel::TaskDone, exec->tag, done.encode()));
  second.join();
  EXPECT_TRUE(acked.ok) << acked.error;
  EXPECT_EQ(acked.tasks_executed, 1u);
  node_ep->close();
  coord_ep->close();
}

}  // namespace
}  // namespace dooc
