#include "net/framing.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#define PS_CRC32_CLMUL 1
#endif

#include "util/error.hpp"

namespace ps::net {

namespace {

/// Slicing-by-8 tables: tables[0] is the classic byte table; tables[k][b]
/// is the CRC register after byte b and then k zero bytes, so eight
/// lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value & 1u) != 0 ? 0xEDB88320u ^ (value >> 1) : value >> 1;
    }
    tables[0][i] = value;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t previous = tables[k - 1][i];
      tables[k][i] = tables[0][previous & 0xffu] ^ (previous >> 8);
    }
  }
  return tables;
}

std::uint32_t load_le32(const unsigned char* bytes) {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

void append_be32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>((value >> 24) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>(value & 0xff));
}

std::uint32_t read_be32(std::string_view bytes, std::size_t offset) {
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(bytes[offset + i]));
  };
  return (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
}

/// The table loop over `size` bytes from `data`, on the raw (not yet
/// inverted) register `crc`.
std::uint32_t crc32_tables(std::uint32_t crc, const unsigned char* data,
                           std::size_t size) {
  static const CrcTables tables = make_crc_tables();
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t low = crc ^ load_le32(data);
    const std::uint32_t high = load_le32(data + 4);
    crc = tables[7][low & 0xffu] ^ tables[6][(low >> 8) & 0xffu] ^
          tables[5][(low >> 16) & 0xffu] ^ tables[4][low >> 24] ^
          tables[3][high & 0xffu] ^ tables[2][(high >> 8) & 0xffu] ^
          tables[1][(high >> 16) & 0xffu] ^ tables[0][high >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = tables[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef PS_CRC32_CLMUL

#define PS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

PS_CLMUL_TARGET __m128i load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// lane · x^d ⊕ next (mod P, up to the register's alignment): one fold of
/// a 128-bit lane across the d bits its constant pair encodes.
PS_CLMUL_TARGET __m128i fold(__m128i lane, __m128i constants, __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(lane, constants, 0x00);
  const __m128i high = _mm_clmulepi64_si128(lane, constants, 0x11);
  return _mm_xor_si128(_mm_xor_si128(high, low), next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
/// bit-reflected domain of 0xEDB88320. Four 128-bit lanes fold 64 bytes
/// per step and are then folded into one lane, which folds 16 bytes per
/// step; the 128-bit remainder is shortened by two more folds and then
/// reduced to the 32-bit register by Barrett reduction. `size` is a
/// multiple of 16 and at least 64; `crc` is the raw register, as for
/// crc32_tables.
PS_CLMUL_TARGET std::uint32_t crc32_clmul(std::uint32_t crc,
                                          const unsigned char* data,
                                          std::size_t size) {
  // The paper's constants for 0xEDB88320, bit-reflected: k1/k2 fold
  // across 64 bytes, k3/k4 across 16 bytes, k5 shortens the remainder;
  // `poly` holds P and the Barrett quotient μ = floor(x^64 / P).
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load128(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load128(data + 16);
  __m128i x3 = load128(data + 32);
  __m128i x4 = load128(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = fold(x1, k1k2, load128(data));
    x2 = fold(x2, k1k2, load128(data + 16));
    x3 = fold(x3, k1k2, load128(data + 32));
    x4 = fold(x4, k1k2, load128(data + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = fold(x1, k3k4, load128(data));
  }

  // Shorten the 128-bit remainder twice: its low half folded by k4 onto
  // its high half, then its low 32 bits folded by k5 onto the rest.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett: q = low32(r) · μ, then r ⊕ low32(q) · P leaves the CRC in
  // bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

#undef PS_CLMUL_TARGET

#endif  // PS_CRC32_CLMUL

}  // namespace

std::uint32_t crc32_portable(std::string_view bytes) {
  return crc32_tables(0xFFFFFFFFu,
                      reinterpret_cast<const unsigned char*>(bytes.data()),
                      bytes.size()) ^
         0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view bytes) {
#ifdef PS_CRC32_CLMUL
  static const bool clmul = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  if (clmul && bytes.size() >= 64) {
    // The folds take whole 16-byte blocks; the table loop takes the tail.
    const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    const std::uint32_t crc = crc32_clmul(0xFFFFFFFFu, data, folded);
    return crc32_tables(crc, data + folded, bytes.size() - folded) ^
           0xFFFFFFFFu;
  }
#endif
  return crc32_portable(bytes);
}

std::string encode_frame(std::string_view payload) {
  PS_REQUIRE(payload.size() <= kMaxFrameBytes, "frame payload too large");
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  append_be32(frame, static_cast<std::uint32_t>(payload.size()));
  append_be32(frame, crc32(payload));
  frame.append(payload);
  return frame;
}

void FrameDecoder::feed(std::string_view bytes) {
  buffer_.append(bytes);
}

std::optional<std::string> FrameDecoder::next() {
  // Validate the length the moment its four bytes arrive — before waiting
  // for the CRC — so a hostile prefix is rejected as early as possible.
  if (buffer_.size() >= 4) {
    const std::uint32_t claimed = read_be32(buffer_, 0);
    if (claimed > max_frame_bytes_) {
      throw Error("frame length " + std::to_string(claimed) +
                  " exceeds the maximum of " +
                  std::to_string(max_frame_bytes_));
    }
  }
  if (buffer_.size() < kFrameHeaderBytes) {
    return std::nullopt;
  }
  const std::uint32_t length = read_be32(buffer_, 0);
  if (buffer_.size() <
      kFrameHeaderBytes + static_cast<std::size_t>(length)) {
    return std::nullopt;
  }
  const std::uint32_t expected = read_be32(buffer_, 4);
  std::string payload = buffer_.substr(kFrameHeaderBytes, length);
  const std::uint32_t actual = crc32(payload);
  if (actual != expected) {
    throw Error("frame checksum mismatch: payload corrupted in transit");
  }
  buffer_.erase(0, kFrameHeaderBytes + static_cast<std::size_t>(length));
  return payload;
}

}  // namespace ps::net
