#include "common/crc32.h"

#include <array>

namespace gekko {
namespace {

// Slicing-by-8 CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
// kTables[0] is the classic bytewise table; kTables[k][b] is the CRC
// of byte b followed by k zero bytes, so one step folds 8 input bytes
// with 8 independent lookups instead of 8 dependent ones.
using Table = std::array<std::uint32_t, 256>;

constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78U ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t init) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~init;
  for (; len >= 8; p += 8, len -= 8) {
    // Assembled byte by byte: no alignment or endianness assumption
    // (compilers fuse it into one load on little-endian targets).
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
        kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace gekko
