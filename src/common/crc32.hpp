// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the classic
// zlib polynomial, table-driven and constexpr-initialized. The dooc::net
// frame layer checksums every payload with it, so a payload checksummed
// on one side of the wire verifies identically on the other.
// crc32("123456789") == 0xCBF43926.
//
// Slice-by-8: eight derived tables let the hot loop fold 8 input bytes per
// iteration instead of one, which matters because every matrix block that
// crosses the wire is checksummed once by the sender and once by the
// receiver.
// Little-endian only, like every other dooc byte layout (wire frames and
// block formats carry an endian probe and reject foreign byte order).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace dooc::common {

namespace detail {
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();
}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dooc::common
