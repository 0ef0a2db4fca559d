// dooc::net wire format: length-prefixed frames with a fixed 32-byte
// header (magic, protocol version, channel, src/dst node, tag, payload
// length, payload CRC-32). Everything that arrives from a socket is
// untrusted: headers are validated field by field, the payload length is
// bounded before any allocation, and the CRC is checked before a frame is
// surfaced — a truncated or corrupted stream fails with a typed FrameError
// instead of feeding garbage into message deserialization.
//
// FrameAssembler is the reassembly state machine: feed it whatever byte
// spans read() produced (partial frames welcome) and it yields complete
// frames. It is transport-agnostic and unit-testable without sockets.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace dooc::net {

/// Node identity on the wire. Worker nodes are 0..N-1 (manifest order);
/// the coordinator/launcher joins as kCoordinatorId.
using NodeId = std::int32_t;
constexpr NodeId kCoordinatorId = -1;

/// A peer sent bytes that cannot be a valid frame (bad magic, foreign
/// protocol version, oversized length prefix, CRC mismatch, malformed
/// message payload). The connection carrying it is beyond recovery.
class FrameError : public Error {
 public:
  explicit FrameError(const std::string& what) : Error(what) {}
};

constexpr std::uint32_t kFrameMagic = 0x444F6F43;  // "DOoC"
/// 6: PutBlock lost its unused flag byte, TaskDone its durable-fallback
/// count, and a failed TaskDone names the lost input home, so an older
/// peer fails at Hello.
constexpr std::uint16_t kProtocolVersion = 6;
constexpr std::size_t kFrameHeaderBytes = 32;
/// Upper bound a receiver enforces on the payload length prefix before
/// allocating. Matrix blocks dominate frame sizes; 256 MiB is far above
/// any block this middleware ships while still rejecting a hostile
/// 2^63-byte prefix outright.
constexpr std::uint32_t kMaxFramePayload = 256u << 20;

/// Message kinds multiplexed over one connection.
enum class Channel : std::uint16_t {
  Hello = 1,     ///< first frame on every connection: node id + os pid
  HelloAck = 2,  ///< acceptor's reply; connection is Ready after this
  PutBlock = 3,  ///< coordinator -> node: store a named block
  FetchReq = 4,  ///< any -> block home: send me array `name` (tag = req id)
  FetchOk = 5,   ///< fetch reply carrying the block bytes (same tag)
  FetchFail = 6, ///< fetch reply: not found / load failed (same tag)
  ExecTask = 7,  ///< coordinator -> node: run one task (tag = task id)
  TaskDone = 8,  ///< node -> coordinator: task finished (same tag)
  ReportReq = 9, ///< coordinator -> node: send your NodeReport
  ReportRep = 10,
  Shutdown = 11, ///< coordinator -> node: drain and exit
  Telemetry = 12, ///< node -> coordinator: periodic TelemetryFrame (tag = seq)
  Barrier = 13,  ///< coordinator -> node: ack once every earlier frame is handled
  BarrierAck = 14, ///< node -> coordinator: barrier reply (same tag)
};

[[nodiscard]] const char* channel_name(Channel c) noexcept;

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t channel = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t tag = 0;          ///< request id / task id correlation
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;  ///< CRC-32 (IEEE) of the payload bytes
};

/// One complete, validated frame.
struct Frame {
  FrameHeader header;
  DataBuffer payload;

  [[nodiscard]] Channel channel() const noexcept {
    return static_cast<Channel>(header.channel);
  }
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the classic
/// zlib polynomial, table-driven. crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// Serialize a header into its 32-byte wire form (little-endian fields).
void encode_header(const FrameHeader& h, std::byte out[kFrameHeaderBytes]) noexcept;

/// Parse and validate a 32-byte header. Throws FrameError on bad magic,
/// foreign version, unknown channel, or a payload length above `max_payload`.
[[nodiscard]] FrameHeader decode_header(std::span<const std::byte> bytes,
                                        std::uint32_t max_payload = kMaxFramePayload);

/// Header + payload as one contiguous byte vector, ready for write().
[[nodiscard]] std::vector<std::byte> encode_frame(Channel channel, NodeId src, NodeId dst,
                                                  std::uint64_t tag,
                                                  std::span<const std::byte> payload);

/// Incremental frame reassembly over an arbitrary chunking of the byte
/// stream. feed() consumes any number of bytes (partial reads, multiple
/// frames per read) and appends completed frames to an internal queue;
/// next() pops them. Throws FrameError as soon as the stream is provably
/// corrupt. in_frame() reports whether the stream stopped mid-frame —
/// how a receiver distinguishes a clean EOF from a truncated one.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::byte> bytes);

  /// Pop the next completed frame, if any.
  [[nodiscard]] bool next(Frame& out);

  /// True when bytes of an incomplete header/payload are pending.
  [[nodiscard]] bool in_frame() const noexcept { return !partial_.empty() || have_header_; }
  [[nodiscard]] std::size_t frames_ready() const noexcept { return ready_.size(); }

 private:
  std::uint32_t max_payload_;
  std::vector<std::byte> partial_;  ///< bytes of the frame being assembled
  bool have_header_ = false;
  FrameHeader header_{};
  std::deque<Frame> ready_;
};

}  // namespace dooc::net
