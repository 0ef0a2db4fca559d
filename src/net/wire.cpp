#include "net/wire.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.hpp"

namespace dooc::net {

namespace {

template <typename T>
void put_le(std::byte*& p, T value) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &value, sizeof(T));
  p += sizeof(T);
}

template <typename T>
T get_le(const std::byte*& p) noexcept {
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

}  // namespace

const char* channel_name(Channel c) noexcept {
  switch (c) {
    case Channel::Hello: return "hello";
    case Channel::HelloAck: return "hello-ack";
    case Channel::PutBlock: return "put-block";
    case Channel::FetchReq: return "fetch-req";
    case Channel::FetchOk: return "fetch-ok";
    case Channel::FetchFail: return "fetch-fail";
    case Channel::ExecTask: return "exec-task";
    case Channel::TaskDone: return "task-done";
    case Channel::ReportReq: return "report-req";
    case Channel::ReportRep: return "report-rep";
    case Channel::Shutdown: return "shutdown";
    case Channel::Telemetry: return "telemetry";
    case Channel::Barrier: return "barrier";
    case Channel::BarrierAck: return "barrier-ack";
    case Channel::Release: return "release";
  }
  return "unknown";
}

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept { return common::crc32(bytes); }

void encode_header(const FrameHeader& h, std::byte out[kFrameHeaderBytes]) noexcept {
  std::byte* p = out;
  put_le(p, h.magic);
  put_le(p, h.version);
  put_le(p, h.channel);
  put_le(p, h.src);
  put_le(p, h.dst);
  put_le(p, h.tag);
  put_le(p, h.payload_len);
  put_le(p, h.payload_crc);
}

FrameHeader decode_header(std::span<const std::byte> bytes, std::uint32_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw FrameError("frame header: need 32 bytes, have " + std::to_string(bytes.size()));
  }
  const std::byte* p = bytes.data();
  FrameHeader h;
  h.magic = get_le<std::uint32_t>(p);
  h.version = get_le<std::uint16_t>(p);
  h.channel = get_le<std::uint16_t>(p);
  h.src = get_le<NodeId>(p);
  h.dst = get_le<NodeId>(p);
  h.tag = get_le<std::uint64_t>(p);
  h.payload_len = get_le<std::uint32_t>(p);
  h.payload_crc = get_le<std::uint32_t>(p);

  if (h.magic != kFrameMagic) {
    throw FrameError("frame header: bad magic (not a dooc::net peer?)");
  }
  if (h.version != kProtocolVersion) {
    throw FrameError("frame header: protocol version " + std::to_string(h.version) +
                     ", this node speaks " + std::to_string(kProtocolVersion));
  }
  if (h.channel < static_cast<std::uint16_t>(Channel::Hello) ||
      h.channel > static_cast<std::uint16_t>(Channel::Release)) {
    throw FrameError("frame header: unknown channel " + std::to_string(h.channel));
  }
  if (h.payload_len > max_payload) {
    throw FrameError("frame header: payload length " + std::to_string(h.payload_len) +
                     " exceeds the " + std::to_string(max_payload) + "-byte frame cap");
  }
  return h;
}

std::vector<std::byte> encode_frame(Channel channel, NodeId src, NodeId dst, std::uint64_t tag,
                                    std::span<const std::byte> payload) {
  DOOC_REQUIRE(payload.size() <= kMaxFramePayload, "frame payload exceeds kMaxFramePayload");
  FrameHeader h;
  h.channel = static_cast<std::uint16_t>(channel);
  h.src = src;
  h.dst = dst;
  h.tag = tag;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = crc32(payload);

  std::vector<std::byte> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.resize(kFrameHeaderBytes);
  encode_header(h, out.data());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameAssembler::feed(std::span<const std::byte> bytes) {
  std::size_t pos = 0;
  // Copy what is left of `bytes` into the `want - got` bytes `dst` lacks.
  const auto fill = [&](std::byte* dst, std::size_t& got, std::size_t want) {
    const std::size_t take = std::min(want - got, bytes.size() - pos);
    if (take != 0) std::memcpy(dst + got, bytes.data() + pos, take);
    got += take;
    pos += take;
    return got == want;
  };
  for (;;) {
    if (!have_header_) {
      if (!fill(header_bytes_, header_got_, kFrameHeaderBytes)) return;
      header_ = decode_header(header_bytes_, max_payload_);
      header_got_ = 0;
      have_header_ = true;
      payload_ = DataBuffer::uninitialized(header_.payload_len);
      payload_got_ = 0;
    }
    if (!fill(payload_.data(), payload_got_, payload_.size())) return;

    Frame f;
    f.header = header_;
    f.payload = std::exchange(payload_, {});
    if (crc32(f.payload.span()) != header_.payload_crc) {
      throw FrameError(std::string("frame payload: CRC mismatch on channel ") +
                       channel_name(f.channel()));
    }
    ready_.push_back(std::move(f));
    have_header_ = false;
    if (pos >= bytes.size()) return;
  }
}

bool FrameAssembler::next(Frame& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace dooc::net
