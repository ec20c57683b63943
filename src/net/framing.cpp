#include "net/framing.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const CrcTables tables = make_crc_tables();
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t size = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
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
