// dooc::net tests: wire framing + CRC, hostile/malformed payload decoding,
// the in-process hub, real Unix/TCP socket loopback (handshake, partial
// reads, mid-frame disconnects), and in-process NodeServer/Coordinator
// clusters: bitwise parity with the single-process engine, lineage
// recovery after a node dies mid-run, and a task that exhausts its
// retries.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
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
#include "spmv/block_grid.hpp"
#include "spmv/csr.hpp"
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

bool peer_up(const net::Transport& t, net::NodeId id) {
  const std::vector<net::NodeId> peers = t.peers();
  return std::find(peers.begin(), peers.end(), id) != peers.end();
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
    m.bytes = pattern_buffer(129);
    const auto d = net::PutBlockMsg::decode(m.encode());
    EXPECT_EQ(d.name, "A_{1,2}");
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
    m.exec_seconds = 0.25;
    m.lost_home = 3;
    const auto d = net::TaskDoneMsg::decode(m.encode());
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.lost_home, 3);
    m.ok = true;
    EXPECT_EQ(net::TaskDoneMsg::decode(m.encode()).lost_home, -1) << "only a failure names one";
    EXPECT_EQ(d.error, "kernel blew up");
    EXPECT_EQ(d.fetched_bytes, 9u);
    EXPECT_DOUBLE_EQ(d.exec_seconds, 0.25);
  }
  {
    net::ReleaseMsg m;
    m.names = {"xp1_0_2", "x1_0", "sync^1"};
    EXPECT_EQ(net::ReleaseMsg::decode(m.encode()).names, m.names);
    EXPECT_TRUE(net::ReleaseMsg::decode(net::ReleaseMsg{}.encode()).names.empty());
  }
  {
    net::NodeReportMsg m;
    m.os_pid = 31337;
    m.tasks_executed = 12;
    m.blocks_resident = 5;
    m.bytes_resident = 4096;
    m.fetch_bytes_in = 777;
    m.fetch_p99_s = 0.125;
    m.trace_path = "/tmp/traces/node2.json";
    const auto d = net::NodeReportMsg::decode(m.encode());
    EXPECT_EQ(d.os_pid, 31337u);
    EXPECT_EQ(d.tasks_executed, 12u);
    EXPECT_EQ(d.blocks_resident, 5u);
    EXPECT_EQ(d.bytes_resident, 4096u);
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

  net::ReleaseMsg rel;
  rel.names = {"a", "bc"};
  const DataBuffer lfull = rel.encode();
  for (std::size_t len = 0; len < lfull.size(); ++len) {
    const DataBuffer cut = DataBuffer::copy_of(lfull.data(), len);
    EXPECT_THROW((void)net::ReleaseMsg::decode(cut), net::FrameError) << "prefix " << len;
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
  {
    BinaryWriter w;  // release: count over the absolute element cap
    w.put<std::uint64_t>(1ull << 40);
    EXPECT_THROW((void)net::ReleaseMsg::decode(w.take()), net::FrameError);
  }
  {
    BinaryWriter w;  // release: 100 names promised, room for one
    w.put<std::uint64_t>(100);
    w.put_string("x");
    EXPECT_THROW((void)net::ReleaseMsg::decode(w.take()), net::FrameError);
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
  EXPECT_TRUE(peer_up(*a, 1));
  EXPECT_FALSE(peer_up(*a, 7));

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
  EXPECT_FALSE(peer_up(*a, 1));
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
  EXPECT_TRUE(peer_up(*client, 0));

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

TEST(NetSocket, FrameCapDropsAPeerThatSendsALargerFrame) {
  testutil::TempDir dir("net_cap");
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir.str() + "/n0.sock";

  auto server = net::SocketTransport::listen(addr, {.self = 0, .max_frame_payload = 1024});
  auto client = net::SocketTransport::client({.self = net::kCoordinatorId});
  ASSERT_TRUE(client->connect_peer(0, addr));
  net::RecvEvent ev;
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerUp, ev));

  // At the cap a frame goes through; past it the connection is dropped.
  ASSERT_TRUE(client->send(0, net::Channel::PutBlock, 1, pattern_buffer(1024)));
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::Frame, ev));
  EXPECT_EQ(ev.payload.size(), 1024u);
  ASSERT_TRUE(client->send(0, net::Channel::PutBlock, 2, pattern_buffer(2048)));
  ASSERT_TRUE(wait_for(*server, net::RecvEvent::Kind::PeerDown, ev));
  EXPECT_EQ(ev.peer, net::kCoordinatorId);
  EXPECT_NE(ev.error.find("exceeds the 1024-byte frame cap"), std::string::npos) << ev.error;
  ASSERT_TRUE(wait_for(*client, net::RecvEvent::Kind::PeerDown, ev));
  EXPECT_EQ(ev.peer, 0);
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
  EXPECT_FALSE(peer_up(*server, net::kCoordinatorId));
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
  EXPECT_FALSE(peer_up(*client, 3));
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
  /// The TaskDone of task `id` went out before the kill (so the
  /// coordinator sees it before the PeerDown).
  [[nodiscard]] bool sent_done(std::uint64_t id) {
    std::lock_guard lock(mutex_);
    return done_ids_.count(id) != 0;
  }

  [[nodiscard]] net::NodeId self() const noexcept override { return inner_->self(); }
  bool send(net::NodeId to, net::Channel channel, std::uint64_t tag,
            DataBuffer payload) override {
    std::lock_guard lock(mutex_);
    if (killed_.load() || !inner_->send(to, channel, tag, std::move(payload))) return false;
    if (channel == net::Channel::TaskDone) {
      tasks_done_sent_.fetch_add(1);
      done_ids_.insert(tag);
    }
    return true;
  }
  bool recv(net::RecvEvent& out, int timeout_ms) override {
    if (killed_.load()) return false;
    return inner_->recv(out, timeout_ms) && !killed_.load();
  }
  [[nodiscard]] std::vector<net::NodeId> peers() const override { return inner_->peers(); }
  [[nodiscard]] net::TransportCounters counters() const override { return inner_->counters(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::InProcTransport> inner_;
  std::mutex mutex_;  ///< orders kill() against in-progress sends
  std::atomic<bool> killed_{false};
  std::atomic<std::uint64_t> tasks_done_sent_{0};
  std::set<std::uint64_t> done_ids_;  ///< guarded by mutex_
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
  [[nodiscard]] bool sent_done(int i, std::uint64_t id) { return endpoints_[i]->sent_done(id); }
  [[nodiscard]] net::NodeServer& server(int i) { return *servers_[i]; }

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

/// The id of the task of `graph` that writes `array`.
sched::TaskId producer_of(const sched::TaskGraph& graph, const std::string& array) {
  for (sched::TaskId t = 0; t < graph.size(); ++t) {
    if (graph.task(t).outputs[0].array == array) return t;
  }
  return sched::kInvalidTask;
}

TEST(NetCluster, InProcCleanRunLeavesOnlyDeployedBlocksAndFinalIterates) {
  const int kNodes = 3;
  InProcCluster cluster(kNodes);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 3;
  jcfg.iterations = 3;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.released, 0u);
  EXPECT_GT(run.release_frames, 0u);

  // A report round trip: each daemon has handled every Release sent to it.
  const auto reports = coord.collect_reports();
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kNodes));

  // Every partial, intermediate iterate and sync token is gone; a node
  // holds its deployed blocks and the final iterate parts it homes.
  std::vector<std::set<std::string>> expect(kNodes);
  const int k = jcfg.grid_k;
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) expect[job.owner_of(u, v)].insert(job.matrix().name_of(u, v));
    expect[job.owner_of(u, u)].insert(spmv::BlockGrid::vector_name("x", 0, u));
    const std::string final_part = spmv::BlockGrid::vector_name("x", jcfg.iterations, u);
    expect[coord.home_of(final_part)].insert(final_part);
  }
  for (int i = 0; i < kNodes; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    for (const std::string& name : expect[i]) {
      DataBuffer held;
      EXPECT_TRUE(cluster.server(i).store().get(name, held)) << name;
    }
    // It holds every expected block and no more blocks than that.
    EXPECT_EQ(reports.at(i).blocks_resident, expect[i].size());
  }
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
  // its own (so some of its outputs must be re-derived).
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

/// The durable files a deployment of `job` leaves: its matrix blocks and
/// x0 parts, and nothing a task wrote.
std::set<std::string> deployed_files(const net::SpmvJob& job, const std::string& dir) {
  std::set<std::string> files;
  const int k = job.config().grid_k;
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) {
      files.insert(net::BlockStore::durable_path(dir, job.matrix().name_of(u, v)));
    }
    files.insert(net::BlockStore::durable_path(dir, spmv::BlockGrid::vector_name("x", 0, u)));
  }
  return files;
}

std::set<std::string> files_in(const std::string& dir) {
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.insert(entry.path().string());
  }
  return files;
}

TEST(NetCluster, InProcNodeDeathReDerivesLostOutputsThroughTheirLineage) {
  testutil::TempDir scratch("net_lineage_scratch");
  const int kNodes = 3;
  const net::NodeId kVictim = 2;
  InProcCluster cluster(kNodes);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 3;
  jcfg.iterations = 3;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();

  // Column strips: the victim multiplies column 2 and reduces row 2. It
  // dies once it has acknowledged the partial xp2_0_2, which the sum x2_0
  // on node 0 reads (the hook runs before that sum can be dispatched);
  // the partial's multiply read x1_2, which the victim reduced too.
  // Re-deriving xp2_0_2 therefore re-runs its multiply, the sum x1_2 and
  // the multiply of xp1_2_2: three producers, down to deployed blocks.
  const std::string partial = spmv::BlockGrid::partial_name("x", 2, 0, kVictim);
  sched::TaskId producer = sched::kInvalidTask;
  for (sched::TaskId t = 0; t < driver->graph().size(); ++t) {
    if (driver->graph().task(t).outputs[0].array == partial) producer = t;
  }
  ASSERT_NE(producer, sched::kInvalidTask);
  bool killed = false;
  coord.progress_hook = [&](std::uint64_t) {
    if (killed || !cluster.sent_done(kVictim, producer)) return;
    killed = true;
    cluster.kill(kVictim);
  };
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(killed) << "the victim never acknowledged " << partial;
  EXPECT_EQ(run.tasks_executed, run.tasks_total);
  EXPECT_EQ(run.dead_nodes, std::vector<net::NodeId>{kVictim});
  EXPECT_GE(run.rederived, 3u);

  const std::vector<double> wire = job.gather(coord);
  const std::vector<double> expect = job.reference(scratch.str());
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size() * sizeof(double)), 0)
      << "result after lineage recovery is not bitwise identical";
  EXPECT_EQ(files_in(cluster.durable_dir()), deployed_files(job, cluster.durable_dir()));
  coord.shutdown_cluster();
}

TEST(NetCluster, InProcNodeDeathReDerivesPartialsAlreadyReleasedOnSurvivors) {
  testutil::TempDir scratch("net_released_scratch");
  const int kNodes = 3;
  const net::NodeId kVictim = 2;
  InProcCluster cluster(kNodes);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 3;
  jcfg.iterations = 3;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();

  // The victim reduces row 2. Once its sum x1_2 is acknowledged, that
  // sum's inputs xp1_2_0 and xp1_2_1 have no reader left, so nodes 0 and 1
  // drop them. The victim then dies before the iteration-2 multiplies that
  // read x1_2 can run (they wait for sync^1), so the sum re-runs and needs
  // the released partials again: their multiplies re-run on the survivors,
  // and the victim's own xp1_2_2 multiply on one of them.
  const sched::TaskId sum =
      producer_of(driver->graph(), spmv::BlockGrid::vector_name("x", 1, kVictim));
  ASSERT_NE(sum, sched::kInvalidTask);
  bool killed = false;
  coord.progress_hook = [&](std::uint64_t) {
    if (killed || !cluster.sent_done(kVictim, sum)) return;
    killed = true;
    cluster.kill(kVictim);
  };
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(killed);
  EXPECT_EQ(run.tasks_executed, run.tasks_total);
  EXPECT_EQ(run.dead_nodes, std::vector<net::NodeId>{kVictim});
  // The sum and the three multiplies of its partials, at least.
  EXPECT_GE(run.rederived, 4u);

  const std::vector<double> wire = job.gather(coord);
  const std::vector<double> expect = job.reference(scratch.str());
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size() * sizeof(double)), 0)
      << "result after re-deriving released partials is not bitwise identical";
  EXPECT_EQ(files_in(cluster.durable_dir()), deployed_files(job, cluster.durable_dir()));
  coord.shutdown_cluster();
}

/// The coordinator's endpoint, slow to see one node die: it holds back
/// that node's PeerDown (and reports sends to the dead node as sent) until
/// a failed TaskDone has come through, so a daemon's report of the dead
/// input home reaches the coordinator first.
class LateDeathEndpoint final : public net::Transport {
 public:
  LateDeathEndpoint(net::Transport& inner, net::NodeId node) : inner_(inner), node_(node) {}

  [[nodiscard]] bool report_came_first() const { return report_first_; }

  [[nodiscard]] net::NodeId self() const noexcept override { return inner_.self(); }
  bool send(net::NodeId to, net::Channel channel, std::uint64_t tag,
            DataBuffer payload) override {
    return inner_.send(to, channel, tag, std::move(payload)) || (to == node_ && held_);
  }
  bool recv(net::RecvEvent& out, int timeout_ms) override {
    if (held_ && released_) {
      out = std::move(*held_);
      held_.reset();
      return true;
    }
    if (!inner_.recv(out, timeout_ms)) return false;
    if (!released_ && out.kind == net::RecvEvent::Kind::PeerDown && out.peer == node_) {
      held_ = std::move(out);
      return false;  // a quiet poll, as far as the coordinator can tell
    }
    if (!released_ && out.kind == net::RecvEvent::Kind::Frame &&
        out.channel == net::Channel::TaskDone && !net::TaskDoneMsg::decode(out.payload).ok) {
      report_first_ = held_.has_value();
      released_ = true;
    }
    return true;
  }
  [[nodiscard]] std::vector<net::NodeId> peers() const override { return inner_.peers(); }
  [[nodiscard]] net::TransportCounters counters() const override { return inner_.counters(); }
  void close() override { inner_.close(); }

 private:
  net::Transport& inner_;
  net::NodeId node_;
  std::optional<net::RecvEvent> held_;
  bool released_ = false;
  bool report_first_ = false;
};

TEST(NetCluster, InProcFailedTaskDoneBeforePeerDownRecoversTheDeadHome) {
  testutil::TempDir scratch("net_late_scratch");
  const int kNodes = 3;
  const net::NodeId kVictim = 2;
  InProcCluster cluster(kNodes);
  LateDeathEndpoint coord_ep(cluster.coord_endpoint(), kVictim);
  net::Coordinator coord(coord_ep, cluster.coord_config());

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 3;
  jcfg.iterations = 2;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();

  // The victim's first output is xp1_0_2, which the sum x1_0 on node 0
  // reads: node 0 finds the home dead, and its failed TaskDone is how the
  // coordinator learns of the death.
  bool killed = false;
  coord.progress_hook = [&](std::uint64_t) {
    if (killed || cluster.tasks_done_sent(kVictim) == 0) return;
    killed = true;
    cluster.kill(kVictim);
  };
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(killed);
  EXPECT_TRUE(coord_ep.report_came_first());
  EXPECT_GE(run.retries, 1u);
  EXPECT_GE(run.rederived, 1u);
  EXPECT_EQ(run.dead_nodes, std::vector<net::NodeId>{kVictim});

  const std::vector<double> wire = job.gather(coord);
  const std::vector<double> expect = job.reference(scratch.str());
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size() * sizeof(double)), 0)
      << "result after a late-seen death is not bitwise identical";
  EXPECT_EQ(files_in(cluster.durable_dir()), deployed_files(job, cluster.durable_dir()));
  coord.shutdown_cluster();
}

TEST(NetCluster, InProcSecondDeathReDerivesAPartialLostWithTheFirst) {
  testutil::TempDir scratch("net_two_deaths_scratch");
  const int kNodes = 4;
  const net::NodeId kFirst = 1;
  const net::NodeId kSecond = 2;
  InProcCluster cluster(kNodes);
  net::CoordinatorConfig ccfg = cluster.coord_config();
  ccfg.idle_timeout_ms = 5000;  // a stalled recovery fails fast
  net::Coordinator coord(cluster.coord_endpoint(), ccfg);

  net::SpmvJobConfig jcfg;
  jcfg.n = 256;
  jcfg.grid_k = 4;
  jcfg.iterations = 3;
  jcfg.num_nodes = kNodes;
  const net::SpmvJob job(jcfg);
  job.deploy(coord);
  const auto driver = job.build_graph();

  // Node 2 reduces x1_2, reading the partial xp1_2_1 that node 1
  // multiplied. Once that sum is acknowledged, node 1 dies and then node
  // 2: xp1_2_1 is not needed when node 1 goes (its one reader is Done),
  // but the readers of x1_2 are not Done when node 2 goes, so the re-run
  // sum needs xp1_2_1 again. Its multiply first ran on node 1, which is
  // already dead, and must move to a survivor.
  const std::string sum = spmv::BlockGrid::vector_name("x", 1, kSecond);
  sched::TaskId producer = sched::kInvalidTask;
  for (sched::TaskId t = 0; t < driver->graph().size(); ++t) {
    if (driver->graph().task(t).outputs[0].array == sum) producer = t;
  }
  ASSERT_NE(producer, sched::kInvalidTask);
  bool killed = false;
  coord.progress_hook = [&](std::uint64_t) {
    if (killed || !cluster.sent_done(kSecond, producer)) return;
    killed = true;
    cluster.kill(kFirst);
    cluster.kill(kSecond);
  };
  const net::RunResult run = coord.run(driver->graph());
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(killed) << "node " << kSecond << " never acknowledged " << sum;
  EXPECT_EQ(run.tasks_executed, run.tasks_total);
  EXPECT_EQ(run.dead_nodes, (std::vector<net::NodeId>{kFirst, kSecond}));
  EXPECT_GE(run.rederived, 2u);

  const std::vector<double> wire = job.gather(coord);
  const std::vector<double> expect = job.reference(scratch.str());
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size() * sizeof(double)), 0)
      << "result after two deaths is not bitwise identical";
  EXPECT_EQ(files_in(cluster.durable_dir()), deployed_files(job, cluster.durable_dir()));
  coord.shutdown_cluster();
}

TEST(NetCluster, UnreadableInputFailsTheRunAndNeverDispatchesItsSuccessor) {
  InProcCluster cluster(2);
  net::Coordinator coord(cluster.coord_endpoint(), cluster.coord_config());

  // "ghost" has a registered home but was never stored there: every
  // attempt of its reader fails.
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

/// One real NodeServer as node 0 on an InProcHub, with scripted raw
/// endpoints for the coordinator and for peers 1..peers: a test plays the
/// other daemons frame by frame.
class ScriptedPeers {
 public:
  explicit ScriptedPeers(int peers) {
    coord_ = hub_.make_endpoint(net::kCoordinatorId);
    for (int i = 1; i <= peers; ++i) peers_.push_back(hub_.make_endpoint(i));
    net::NodeServerConfig scfg;
    scfg.node = 0;
    scfg.fetch_timeout_ms = 3000;
    server_ = std::make_unique<net::NodeServer>(hub_.make_endpoint(0), scfg);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~ScriptedPeers() {
    server_->stop();
    thread_.join();
  }
  ScriptedPeers(const ScriptedPeers&) = delete;
  ScriptedPeers& operator=(const ScriptedPeers&) = delete;

  [[nodiscard]] net::NodeServer& server() { return *server_; }
  [[nodiscard]] net::Transport& coord() { return *coord_; }
  [[nodiscard]] net::Transport& peer(int id) { return *peers_[static_cast<std::size_t>(id - 1)]; }

  /// Send one task to node 0 and wait for its TaskDone.
  net::TaskDoneMsg exec(const net::ExecTaskMsg& msg, const std::function<void()>& serve = {}) {
    EXPECT_TRUE(coord_->send(0, net::Channel::ExecTask, 7, msg.encode()));
    if (serve) serve();
    net::RecvEvent ev;
    EXPECT_TRUE(wait_for(*coord_, net::RecvEvent::Kind::Frame, ev));
    EXPECT_EQ(ev.channel, net::Channel::TaskDone);
    return net::TaskDoneMsg::decode(ev.payload);
  }

 private:
  net::InProcHub hub_;
  std::unique_ptr<net::InProcTransport> coord_;
  std::vector<std::unique_ptr<net::InProcTransport>> peers_;
  std::unique_ptr<net::NodeServer> server_;
  std::thread thread_;
};

DataBuffer doubles(std::initializer_list<double> values) {
  const std::vector<double> v(values);
  return DataBuffer::copy_of(reinterpret_cast<const std::byte*>(v.data()),
                             v.size() * sizeof(double));
}

TEST(NetNode, SyncTaskFetchesNoInput) {
  // y = diag(2, 3) x, as a binary CRS block.
  spmv::CsrMatrix a;
  a.rows = a.cols = 2;
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.values = {2.0, 3.0};
  std::vector<std::byte> a_bytes;
  spmv::serialize_csr(a, a_bytes);

  // Each row's input on peer 1 only orders the task: its kernel reads
  // none of it, so no FetchReq may go out.
  struct Row {
    const char* what;
    net::ExecTaskMsg msg;
  };
  const Row rows[] = {
      {"sync", {"sync^1", "sync", {{"x1_1", 64, 1}}, {{"sync1", 1}}}},
      {"multiply with a remote sync token",
       {"x_{0,0}^2",
        "multiply",
        {{"A_0_0", a_bytes.size(), 0}, {"x1_0", 16, 0}, {"sync1", 1, 1}},
        {{"xp2_0_0", 16}}}},
  };
  ScriptedPeers cluster(1);
  cluster.server().store().put("A_0_0", DataBuffer::copy_of(a_bytes.data(), a_bytes.size()),
                               false);
  cluster.server().store().put("x1_0", doubles({1.0, 2.0}), false);
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    const std::uint64_t before = cluster.server().report().fetches_issued;
    const net::TaskDoneMsg done = cluster.exec(row.msg);
    EXPECT_TRUE(done.ok) << done.error;
    EXPECT_EQ(done.fetched_bytes, 0u);
    EXPECT_EQ(cluster.server().report().fetches_issued - before, 0u);
    net::RecvEvent ev;
    EXPECT_FALSE(wait_for(cluster.peer(1), net::RecvEvent::Kind::Frame, ev, 200))
        << "the input's home got a " << net::channel_name(ev.channel);
  }
  DataBuffer y;
  ASSERT_TRUE(cluster.server().store().get("xp2_0_0", y));
  ASSERT_EQ(y.as<const double>().size(), 2u);
  EXPECT_EQ(y.as<const double>()[0], 2.0);
  EXPECT_EQ(y.as<const double>()[1], 6.0);
}

TEST(NetNode, SumSendsEveryRemoteFetchBeforeTheFirstReply) {
  ScriptedPeers cluster(3);
  // Column 1 is order-sensitive: (1 + 1e16) - 1e16 is 0, but 1 if the
  // last input were added first.
  const std::vector<double> parts[] = {{1.0, 1.0}, {10.0, 1e16}, {100.0, -1e16}};
  net::ExecTaskMsg msg;
  msg.name = "x_0^1";
  msg.kind = "sum";
  for (int v = 0; v < 3; ++v) msg.inputs.push_back({"xp1_0_" + std::to_string(v), 16, v + 1});
  msg.outputs = {{"x1_0", 16}};

  const net::TaskDoneMsg done = cluster.exec(msg, [&] {
    // Every peer must hold its FetchReq while no reply has been served.
    std::vector<net::RecvEvent> reqs(3);
    for (int v = 0; v < 3; ++v) {
      ASSERT_TRUE(wait_for(cluster.peer(v + 1), net::RecvEvent::Kind::Frame, reqs[v], 1000))
          << "FetchReq " << v << " was not sent before the first reply";
      ASSERT_EQ(reqs[v].channel, net::Channel::FetchReq);
      EXPECT_EQ(net::FetchReqMsg::decode(reqs[v].payload).name, msg.inputs[v].array);
    }
    // Reply last-first: the sum still adds its inputs in input order.
    for (int v = 2; v >= 0; --v) {
      const net::FetchOkMsg rep{msg.inputs[v].array,
                                doubles({parts[v][0], parts[v][1]})};
      ASSERT_TRUE(cluster.peer(v + 1).send(0, net::Channel::FetchOk, reqs[v].tag, rep.encode()));
    }
  });
  ASSERT_TRUE(done.ok) << done.error;
  EXPECT_EQ(done.fetched_bytes, 48u);
  EXPECT_EQ(cluster.server().report().fetches_issued, 3u);
  DataBuffer out;
  ASSERT_TRUE(cluster.server().store().get("x1_0", out));
  const auto y = out.as<const double>();
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], (1.0 + 10.0) + 100.0);
  EXPECT_EQ(y[1], (1.0 + 1e16) + -1e16);
}

}  // namespace
}  // namespace dooc
