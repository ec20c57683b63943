#pragma once
// Byte helpers for tests of the binary wire grammar (core/wire.hpp):
// hex pins of whole payloads, and locating a double's 8 bytes inside one.
#include <cstddef>
#include <string>
#include <string_view>

#include "core/wire.hpp"

namespace ps::test {

/// Lower-case hex of every byte, no separators.
inline std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0x0f];
  }
  return out;
}

/// The 8 bytes a double field is written as.
inline std::string f64_bytes(double value) {
  core::wire::Writer out(core::wire::Tag::kSample);
  out.f64(value);
  return out.bytes().substr(1);
}

/// Offset of the first double field equal to `value`, or npos.
inline std::size_t find_f64(std::string_view bytes, double value) {
  return bytes.find(f64_bytes(value));
}

/// `bytes` with the one byte at `index` XOR-ed by `mask`.
inline std::string flip(std::string bytes, std::size_t index,
                        unsigned char mask = 1) {
  bytes[index] = static_cast<char>(static_cast<unsigned char>(bytes[index]) ^
                                   mask);
  return bytes;
}

}  // namespace ps::test
