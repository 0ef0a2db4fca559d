#include "spmv/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/crc32.hpp"
#include "common/spec.hpp"
#include "spmv/csr.hpp"
#include "spmv/wire.hpp"

namespace dooc::spmv::codec {

namespace {

enum : std::uint8_t {
  kSectionRaw = 0,
  kSectionDeltaU64 = 1,
  kSectionZigzagU32 = 2,
  kSectionShuffleRle = 3,
};

constexpr std::uint64_t kFlagVarintIndices = 1ull << 0;
constexpr std::uint64_t kFlagShuffledValues = 1ull << 1;
constexpr std::uint64_t kFormatShift = 8;
constexpr std::uint64_t kFormatCsr = 1;

// --- LEB128 varints --------------------------------------------------------

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t varint_bytes(std::uint64_t v) noexcept {
  std::uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Bounded varint read; throws CodecError on truncation or an overlong
/// (> 10 byte) encoding — the "truncated varint stream" hostile case.
std::uint64_t get_varint(std::span<const std::byte> body, std::uint64_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= body.size()) throw CodecError("codec frame: truncated varint stream");
    const auto b = static_cast<std::uint8_t>(body[pos++]);
    if (shift == 63 && (b & ~std::uint8_t{1}) != 0) {
      throw CodecError("codec frame: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  throw CodecError("codec frame: overlong varint");
}

/// Fast-path varint read: the caller guarantees 10 readable bytes at `pos`
/// (the maximum encoding length), so no per-byte bounds check is needed.
/// Same value and overflow semantics as get_varint.
inline std::uint64_t get_varint_fast(const std::byte* body, std::uint64_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto b = static_cast<std::uint8_t>(body[pos++]);
    if (shift == 63 && (b & ~std::uint8_t{1}) != 0) {
      throw CodecError("codec frame: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw CodecError("codec frame: overlong varint");
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// --- section encoders ------------------------------------------------------

/// Monotone u64 array (row_ptr / chunk_ptr): first value, then gaps.
/// Returns false (leaving `out` untouched) if the array is not monotone.
bool encode_delta_u64(std::span<const std::byte> raw, std::vector<std::byte>& out) {
  const std::uint64_t n = raw.size() / 8;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v;
    std::memcpy(&v, raw.data() + i * 8, 8);
    if (i == 0) {
      put_varint(out, v);
    } else {
      if (v < prev) return false;
      put_varint(out, v - prev);
    }
    prev = v;
  }
  return true;
}

void decode_delta_u64(std::span<const std::byte> body, std::uint64_t& pos, std::uint64_t enc_end,
                      std::byte* dst, std::uint64_t raw_len) {
  if (raw_len % 8 != 0) throw CodecError("codec frame: delta-u64 section not 8-byte multiple");
  const std::uint64_t n = raw_len / 8;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    // A varint is at most 10 bytes: with that much headroom before enc_end
    // the unchecked read cannot overrun the section. The bounded tail read
    // throws on any varint that would cross enc_end.
    const std::uint64_t gap = enc_end - pos >= 10 ? get_varint_fast(body.data(), pos)
                                                  : get_varint(body.first(enc_end), pos);
    std::uint64_t v;
    if (i == 0) {
      v = gap;
    } else if (!wire::checked_add(prev, gap, v)) {
      throw CodecError("codec frame: delta-u64 section overflows");
    }
    std::memcpy(dst + i * 8, &v, 8);
    prev = v;
  }
}

/// u32 array (col_idx / perm, including pad words): zigzag varints of
/// successive differences. Handles the drop at each row/chunk boundary and
/// the final zero pad word without knowing the matrix structure.
void encode_zigzag_u32(std::span<const std::byte> raw, std::vector<std::byte>& out) {
  const std::uint64_t n = raw.size() / 4;
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint32_t v;
    std::memcpy(&v, raw.data() + i * 4, 4);
    put_varint(out, zigzag(static_cast<std::int64_t>(v) - prev));
    prev = static_cast<std::int64_t>(v);
  }
}

void decode_zigzag_u32(std::span<const std::byte> body, std::uint64_t& pos, std::uint64_t enc_end,
                       std::byte* dst, std::uint64_t raw_len) {
  if (raw_len % 4 != 0) throw CodecError("codec frame: zigzag-u32 section not 4-byte multiple");
  const std::uint64_t n = raw_len / 4;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t gap = enc_end - pos >= 10 ? get_varint_fast(body.data(), pos)
                                                  : get_varint(body.first(enc_end), pos);
    // Wrapping unsigned add: a hostile delta near INT64_MAX/MIN must not hit
    // signed-overflow UB, and any out-of-range true sum lands outside
    // [0, 2^32) after the wrap, so the range check stays exact.
    const std::uint64_t cur = prev + static_cast<std::uint64_t>(unzigzag(gap));
    if (cur > 0xFFFFFFFFull) {
      throw CodecError("codec frame: zigzag-u32 value out of range");
    }
    const auto v = static_cast<std::uint32_t>(cur);
    std::memcpy(dst + i * 4, &v, 4);
    prev = cur;
  }
}

/// f64 array: transpose into 8 byte planes (all byte-0s, then byte-1s, ...)
/// so the repetitive sign/exponent bytes line up, then run-length encode.
/// RLE tokens: control c < 128 -> (c+1) literal bytes follow; c >= 128 ->
/// one byte follows, repeated (c - 128 + 3) times.
void rle_flush_literals(std::vector<std::byte>& out, const std::byte* lit, std::size_t n) {
  while (n > 0) {
    const std::size_t take = std::min<std::size_t>(n, 128);
    out.push_back(static_cast<std::byte>(take - 1));
    out.insert(out.end(), lit, lit + take);
    lit += take;
    n -= take;
  }
}

void encode_shuffle_rle(std::span<const std::byte> raw, std::vector<std::byte>& out) {
  const std::uint64_t n = raw.size() / 8;
  std::vector<std::byte> planes(raw.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t p = 0; p < 8; ++p) planes[p * n + i] = raw[i * 8 + p];
  }
  std::size_t lit_begin = 0;
  std::size_t i = 0;
  while (i < planes.size()) {
    std::size_t run = 1;
    while (i + run < planes.size() && planes[i + run] == planes[i] && run < 130) ++run;
    if (run >= 3) {
      rle_flush_literals(out, planes.data() + lit_begin, i - lit_begin);
      out.push_back(static_cast<std::byte>(128 + (run - 3)));
      out.push_back(planes[i]);
      i += run;
      lit_begin = i;
    } else {
      i += run;
    }
  }
  rle_flush_literals(out, planes.data() + lit_begin, planes.size() - lit_begin);
}

void decode_shuffle_rle(std::span<const std::byte> body, std::uint64_t& pos, std::uint64_t enc_end,
                        std::byte* dst, std::uint64_t raw_len) {
  if (raw_len % 8 != 0) throw CodecError("codec frame: shuffle-rle section not 8-byte multiple");
  std::vector<std::byte> planes(raw_len);
  std::uint64_t filled = 0;
  while (filled < raw_len) {
    if (pos >= enc_end) throw CodecError("codec frame: shuffle-rle section underruns");
    const auto c = static_cast<std::uint8_t>(body[pos++]);
    if (c < 128) {
      const std::uint64_t take = c + 1u;
      if (pos + take > enc_end) throw CodecError("codec frame: shuffle-rle literal truncated");
      if (filled + take > raw_len) throw CodecError("codec frame: shuffle-rle overruns output");
      std::memcpy(planes.data() + filled, body.data() + pos, take);
      pos += take;
      filled += take;
    } else {
      if (pos >= enc_end) throw CodecError("codec frame: shuffle-rle run truncated");
      const std::uint64_t run = static_cast<std::uint64_t>(c - 128) + 3;
      if (filled + run > raw_len) throw CodecError("codec frame: shuffle-rle overruns output");
      std::memset(planes.data() + filled, static_cast<int>(body[pos++]), run);
      filled += run;
    }
  }
  // Un-shuffle: gather one byte per plane and store the reassembled f64 as
  // a single 8-byte word (8 sequential read streams, 1 sequential write).
  const std::uint64_t n = raw_len / 8;
  const std::byte* lane = planes.data();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t w = 0;
    for (std::uint64_t p = 0; p < 8; ++p) {
      w |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(lane[p * n + i])) << (8 * p);
    }
    std::memcpy(dst + i * 8, &w, 8);
  }
}

// --- section assembly ------------------------------------------------------

struct SectionPlan {
  std::uint64_t offset = 0;  ///< into the raw payload
  std::uint64_t length = 0;
  std::uint8_t preferred = kSectionRaw;
  bool is_index = false;  ///< counts toward the index-stream ratio
  bool is_value = false;
};

/// Split a serialized matrix payload into codec sections. Returns false
/// when the bytes are not a binary CRS block.
bool plan_sections(std::span<const std::byte> raw, std::vector<SectionPlan>& plan) {
  if (raw.size() < 8) return false;
  std::uint64_t magic;
  std::memcpy(&magic, raw.data(), 8);
  if (magic != kCsrMagic) return false;
  const CsrView v = CsrView::from_bytes(raw);  // validates the layout
  // u32 row pointers take the zigzag pass (their deltas are the row
  // lengths). u16 columns ride raw: every packing section decodes to 4-
  // or 8-byte words.
  const CsrWidths w = v.widths();
  const std::uint64_t row_bytes = *wire::padded_bytes(v.rows() + 1, w.row_ptr);
  const std::uint64_t col_bytes = *wire::padded_bytes(v.nnz(), w.col);
  std::uint64_t at = kCsrHeaderBytes;
  plan.push_back({0, at, kSectionRaw, false, false});
  plan.push_back(
      {at, row_bytes, w.row_ptr == 4 ? kSectionZigzagU32 : kSectionDeltaU64, true, false});
  at += row_bytes;
  plan.push_back({at, col_bytes, w.col == 2 ? kSectionRaw : kSectionZigzagU32, true, false});
  at += col_bytes;
  plan.push_back({at, v.nnz() * 8, kSectionShuffleRle, false, true});
  at += v.nnz() * 8;
  if (at < raw.size()) plan.push_back({at, raw.size() - at, kSectionRaw, false, false});
  return true;
}

}  // namespace

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::On: return "on";
    case Mode::Adaptive: return "adaptive";
  }
  return "unknown";
}

CodecConfig CodecConfig::parse(const std::string& text) {
  const Spec::Choices<Mode> kModes = {
      {"off", Mode::Off}, {"on", Mode::On}, {"adaptive", Mode::Adaptive}};
  CodecConfig cfg;
  Spec spec("DOOC_CODEC", text);
  spec.read_mode(cfg.mode, kModes);
  spec.read_choice("mode", cfg.mode, kModes);
  spec.read_float("min_ratio", cfg.min_ratio, 1.0, std::numeric_limits<double>::max());
  spec.read_bool("shuffle", cfg.shuffle_values);
  spec.read_bool("direct_io", cfg.direct_io);
  spec.read_int("read_ahead", cfg.read_ahead, 0, 64);
  spec.finish();
  return cfg;
}

CodecConfig CodecConfig::from_env() { return parse(Spec::env("DOOC_CODEC")); }

bool is_encoded(std::span<const std::byte> bytes) noexcept {
  if (bytes.size() < 8) return false;
  std::uint64_t magic;
  std::memcpy(&magic, bytes.data(), 8);
  return magic == kCodecMagic;
}

namespace {

struct FrameHeader {
  std::uint64_t raw_bytes = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t flags = 0;
  std::uint32_t body_crc = 0;
  std::uint32_t raw_crc = 0;
};

FrameHeader parse_header(std::span<const std::byte> bytes, std::uint64_t cap) {
  if (bytes.size() < kCodecHeaderBytes) throw CodecError("codec frame: truncated header");
  std::uint64_t words[kCodecHeaderWords];
  std::memcpy(words, bytes.data(), sizeof(words));
  if (words[0] != kCodecMagic) throw CodecError("codec frame: bad magic");
  if (words[1] != kEndianProbe) throw CodecError("codec frame: foreign byte order");
  FrameHeader h;
  h.raw_bytes = words[2];
  h.body_bytes = words[3];
  h.flags = words[4];
  h.body_crc = static_cast<std::uint32_t>(words[5] & 0xFFFFFFFFull);
  h.raw_crc = static_cast<std::uint32_t>(words[5] >> 32);
  // Ratio-bomb defense: the declared decoded size is validated against the
  // caller's cap BEFORE any allocation sized from it.
  if (h.raw_bytes > cap) {
    throw CodecError("codec frame: declared decoded size " + std::to_string(h.raw_bytes) +
                     " exceeds cap " + std::to_string(cap));
  }
  std::uint64_t need;
  if (!wire::checked_add(kCodecHeaderBytes, h.body_bytes, need) || bytes.size() < need) {
    throw CodecError("codec frame: truncated body");
  }
  return h;
}

}  // namespace

std::uint64_t decoded_bytes(std::span<const std::byte> bytes, std::uint64_t cap) {
  return parse_header(bytes, cap).raw_bytes;
}

std::uint64_t probe_frame(std::span<const std::byte> head, std::uint64_t file_bytes,
                          std::uint64_t cap) {
  if (head.size() < kCodecHeaderBytes) throw CodecError("codec frame: truncated header");
  std::uint64_t words[kCodecHeaderWords];
  std::memcpy(words, head.data(), sizeof(words));
  if (words[0] != kCodecMagic) throw CodecError("codec frame: bad magic");
  if (words[1] != kEndianProbe) throw CodecError("codec frame: foreign byte order");
  if (words[2] > cap) {
    throw CodecError("codec frame: declared decoded size " + std::to_string(words[2]) +
                     " exceeds cap " + std::to_string(cap));
  }
  std::uint64_t need;
  if (!wire::checked_add(kCodecHeaderBytes, words[3], need) || need != file_bytes) {
    throw CodecError("codec frame: body does not match file size");
  }
  return words[2];
}

std::optional<DataBuffer> encode_block(std::span<const std::byte> raw, const CodecConfig& cfg,
                                       EncodeStats* stats) {
  if (cfg.mode == Mode::Off) return std::nullopt;
  std::vector<SectionPlan> plan;
  if (!plan_sections(raw, plan)) return std::nullopt;

  EncodeStats st;
  st.raw_bytes = raw.size();
  std::vector<std::byte> body;
  body.reserve(raw.size() / 2);
  std::vector<std::byte> scratch;
  std::uint64_t flags = kFormatCsr << kFormatShift;
  for (const SectionPlan& s : plan) {
    // Zero-length sections (empty blocks have no col_idx/values) would sit
    // after the decoder's fill loop has already reached raw_bytes — emit
    // nothing for them.
    if (s.length == 0) continue;
    const auto raw_section = raw.subspan(s.offset, s.length);
    scratch.clear();
    std::uint8_t encoding = kSectionRaw;
    if (s.preferred == kSectionDeltaU64) {
      if (!encode_delta_u64(raw_section, scratch)) scratch.clear();
      else encoding = kSectionDeltaU64;
    } else if (s.preferred == kSectionZigzagU32) {
      encode_zigzag_u32(raw_section, scratch);
      encoding = kSectionZigzagU32;
    } else if (s.preferred == kSectionShuffleRle && cfg.shuffle_values && s.length > 0) {
      encode_shuffle_rle(raw_section, scratch);
      encoding = kSectionShuffleRle;
    }
    // Keep the encoded form only when it actually shrinks the section —
    // incompressible streams ride along raw inside the frame. The value
    // pass must shrink by a margin (1/16th): its unshuffle is the priciest
    // decode, so a ~1% saving would cost more CPU than the bytes it buys.
    const std::uint64_t keep_below =
        encoding == kSectionShuffleRle ? s.length - s.length / 16 : s.length;
    if (encoding == kSectionRaw || scratch.size() >= keep_below) {
      encoding = kSectionRaw;
      scratch.assign(raw_section.begin(), raw_section.end());
    }
    if (s.is_index) {
      st.index_raw_bytes += s.length;
      st.index_encoded_bytes +=
          varint_bytes(s.length) + 1 + varint_bytes(scratch.size()) + scratch.size();
      if (encoding != kSectionRaw) flags |= kFlagVarintIndices;
    }
    if (s.is_value) {
      st.value_raw_bytes += s.length;
      st.value_encoded_bytes +=
          varint_bytes(s.length) + 1 + varint_bytes(scratch.size()) + scratch.size();
      if (encoding != kSectionRaw) flags |= kFlagShuffledValues;
    }
    put_varint(body, s.length);
    body.push_back(static_cast<std::byte>(encoding));
    put_varint(body, scratch.size());
    body.insert(body.end(), scratch.begin(), scratch.end());
  }

  st.encoded_bytes = kCodecHeaderBytes + body.size();
  if (stats != nullptr) *stats = st;
  if (cfg.mode == Mode::Adaptive && st.ratio() < cfg.min_ratio) return std::nullopt;

  DataBuffer frame(st.encoded_bytes);
  const std::uint64_t crc_word =
      static_cast<std::uint64_t>(common::crc32(std::span<const std::byte>(body))) |
      (static_cast<std::uint64_t>(common::crc32(raw)) << 32);
  const std::uint64_t words[kCodecHeaderWords] = {kCodecMagic, kEndianProbe,         raw.size(),
                                                  body.size(), flags,                crc_word};
  std::memcpy(frame.data(), words, sizeof(words));
  std::memcpy(frame.data() + kCodecHeaderBytes, body.data(), body.size());
  return frame;
}

DataBuffer decode_block(std::span<const std::byte> bytes, std::uint64_t cap) {
  const FrameHeader h = parse_header(bytes, cap);
  const auto body = bytes.subspan(kCodecHeaderBytes, h.body_bytes);
  if (common::crc32(body) != h.body_crc) {
    throw CodecError("codec frame: body CRC mismatch (corrupt frame)");
  }
  DataBuffer out(h.raw_bytes);
  std::uint64_t pos = 0;
  std::uint64_t filled = 0;
  while (filled < h.raw_bytes) {
    const std::uint64_t raw_len = get_varint(body, pos);
    if (pos >= body.size()) throw CodecError("codec frame: truncated section header");
    const auto encoding = static_cast<std::uint8_t>(body[pos++]);
    const std::uint64_t enc_len = get_varint(body, pos);
    std::uint64_t enc_end;
    if (!wire::checked_add(pos, enc_len, enc_end) || enc_end > body.size()) {
      throw CodecError("codec frame: section overruns body");
    }
    std::uint64_t next_filled;
    if (!wire::checked_add(filled, raw_len, next_filled) || next_filled > h.raw_bytes) {
      throw CodecError("codec frame: sections exceed declared decoded size");
    }
    std::byte* dst = out.data() + filled;
    switch (encoding) {
      case kSectionRaw:
        if (enc_len != raw_len) throw CodecError("codec frame: raw section length mismatch");
        std::memcpy(dst, body.data() + pos, raw_len);
        pos = enc_end;
        break;
      case kSectionDeltaU64:
        decode_delta_u64(body, pos, enc_end, dst, raw_len);
        break;
      case kSectionZigzagU32:
        decode_zigzag_u32(body, pos, enc_end, dst, raw_len);
        break;
      case kSectionShuffleRle:
        decode_shuffle_rle(body, pos, enc_end, dst, raw_len);
        break;
      default:
        throw CodecError("codec frame: unknown section encoding " + std::to_string(encoding));
    }
    if (pos != enc_end) throw CodecError("codec frame: section length mismatch");
    filled = next_filled;
  }
  if (pos != body.size()) throw CodecError("codec frame: trailing bytes after last section");
  if (common::crc32(out.span()) != h.raw_crc) {
    throw CodecError("codec frame: decoded payload CRC mismatch");
  }
  return out;
}

DataBuffer decode_if_encoded(const DataBuffer& bytes, std::uint64_t cap) {
  if (!is_encoded(bytes.span())) return bytes;
  return decode_block(bytes.span(), cap);
}

CodecEstimate estimate_block(std::span<const std::byte> raw) {
  CodecEstimate est;
  std::vector<SectionPlan> plan;
  if (!plan_sections(raw, plan)) return est;

  // Sample zigzag deltas of the u32 index sections and the gap widths of
  // the u64 pointer sections; predict the varint footprint from the byte
  // widths and score their distribution's entropy for the report.
  constexpr std::uint64_t kMaxSamples = 64 * 1024;
  std::uint64_t index_raw = 0;
  std::uint64_t value_raw = 0;
  double predicted_index = 0;
  // Valid varint widths are 1..10 bytes (a u64 delta >= 2^63 takes 10);
  // indexed directly by width, so slot 0 stays unused.
  std::uint64_t width_hist[11] = {};
  std::uint64_t sampled = 0;
  for (const SectionPlan& s : plan) {
    if (s.is_value) value_raw += s.length;
    if (!s.is_index) continue;
    index_raw += s.length;
    const auto section = raw.subspan(s.offset, s.length);
    if (s.preferred == kSectionRaw) {
      predicted_index += static_cast<double>(s.length);  // stored as is
    } else if (s.preferred == kSectionDeltaU64) {
      const std::uint64_t n = s.length / 8;
      const std::uint64_t stride = std::max<std::uint64_t>(1, n / kMaxSamples);
      std::uint64_t bytes_for_sampled = 0;
      std::uint64_t taken = 0;
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n; i += stride) {
        std::uint64_t v;
        std::memcpy(&v, section.data() + i * 8, 8);
        const std::uint64_t gap = v >= prev ? v - prev : prev - v;
        const std::uint64_t w = varint_bytes(gap / std::max<std::uint64_t>(1, stride));
        bytes_for_sampled += w;
        ++width_hist[w];
        ++taken;
        prev = v;
      }
      if (taken > 0) {
        predicted_index += static_cast<double>(bytes_for_sampled) / static_cast<double>(taken) *
                           static_cast<double>(n);
        sampled += taken;
      }
    } else {
      const std::uint64_t n = s.length / 4;
      const std::uint64_t stride = std::max<std::uint64_t>(1, n / kMaxSamples);
      std::uint64_t bytes_for_sampled = 0;
      std::uint64_t taken = 0;
      std::int64_t prev = 0;
      for (std::uint64_t i = 0; i < n; i += stride) {
        std::uint32_t v;
        std::memcpy(&v, section.data() + i * 4, 4);
        // Contiguous deltas are what the encoder sees; a strided sample
        // approximates them by scaling the observed jump back down.
        const std::int64_t jump =
            (static_cast<std::int64_t>(v) - prev) / static_cast<std::int64_t>(stride);
        const std::uint64_t w = varint_bytes(zigzag(jump));
        bytes_for_sampled += w;
        ++width_hist[w];
        ++taken;
        prev = static_cast<std::int64_t>(v);
      }
      if (taken > 0) {
        predicted_index += static_cast<double>(bytes_for_sampled) / static_cast<double>(taken) *
                           static_cast<double>(n);
        sampled += taken;
      }
    }
  }
  est.sampled_deltas = sampled;
  if (predicted_index > 0 && index_raw > 0) {
    est.index_ratio = static_cast<double>(index_raw) / predicted_index;
    // Conservative: assume values ride raw (the adaptive value pass only
    // helps padded/structured payloads).
    est.overall_ratio = static_cast<double>(index_raw + value_raw) /
                        (predicted_index + static_cast<double>(value_raw));
  }
  if (sampled > 0) {
    double h = 0;
    for (const std::uint64_t c : width_hist) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / static_cast<double>(sampled);
      h -= p * std::log2(p);
    }
    est.delta_entropy_bits = h;
  }
  return est;
}

}  // namespace dooc::spmv::codec
