// Slice-by-16 CRC-32: sixteen 256-entry tables let the main loop fold 16
// input bytes per iteration with independent lookups instead of carrying
// a serial dependency through every byte. Same polynomial, init and final
// XOR as the textbook byte-at-a-time loop, so the output is identical.
#include "common/crc32.hpp"

#include <array>

namespace ptycho {

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

// tables[0] is the classic byte table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, i.e. the contribution of a byte k positions
// ahead of the end of a 16-byte block.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = make_crc32_tables();

// Little-endian 32-bit load, spelled bytewise so it is correct on any host
// (compilers fold it into one load where the host is little-endian).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kTables;
  crc = ~crc;
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t a = load_le32(p) ^ crc;
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t c = load_le32(p + 8);
    const std::uint32_t d = load_le32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
          t[12][a >> 24] ^ t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
          t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^ t[7][c & 0xFFu] ^
          t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^ t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace ptycho
