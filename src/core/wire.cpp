#include "core/wire.hpp"

#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace ps::core::wire {

namespace {

constexpr std::uint8_t kFirstTag = static_cast<std::uint8_t>(Tag::kSample);
constexpr std::uint8_t kLastTag = static_cast<std::uint8_t>(Tag::kHaAck);

}  // namespace

std::optional<Tag> peek_tag(std::string_view payload) noexcept {
  if (payload.empty()) {
    return std::nullopt;
  }
  const auto value = static_cast<std::uint8_t>(payload.front());
  if (value < kFirstTag || value > kLastTag) {
    return std::nullopt;
  }
  return static_cast<Tag>(value);
}

Writer::Writer(Tag tag) { byte(static_cast<std::uint8_t>(tag)); }

void Writer::varint(std::uint64_t value) {
  while (value >= 0x80) {
    byte(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  byte(static_cast<std::uint8_t>(value));
}

void Writer::f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buffer[8];
  for (char& out : buffer) {
    out = static_cast<char>(bits & 0xff);
    bits >>= 8;
  }
  out_.append(buffer, sizeof(buffer));
}

void Writer::string(std::string_view value) {
  varint(value.size());
  out_.append(value);
}

void Writer::f64s(const std::vector<double>& values) {
  varint(values.size());
  for (const double value : values) {
    f64(value);
  }
}

void Writer::u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    byte(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

Reader::Reader(std::string_view payload, Tag expected) : bytes_(payload) {
  PS_REQUIRE(peek_tag(payload) == expected, "payload has the wrong tag");
}

std::string_view Reader::take(std::size_t length) {
  PS_REQUIRE(length <= remaining(), "payload is truncated");
  const std::string_view out = bytes_.substr(pos_, length);
  pos_ += length;
  return out;
}

std::uint8_t Reader::byte() {
  return static_cast<std::uint8_t>(take(1).front());
}

bool Reader::flag() {
  const std::uint8_t value = byte();
  PS_REQUIRE(value <= 1, "flag byte must be 0 or 1");
  return value == 1;
}

std::uint64_t Reader::varint() {
  std::uint64_t value = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t next = byte();
    PS_REQUIRE(shift < 63 || next <= 1, "varint overflows 64 bits");
    // A zero high group is a padded (non-minimal) encoding: one value,
    // one byte form.
    PS_REQUIRE(shift == 0 || next != 0, "varint is not minimal");
    value |= static_cast<std::uint64_t>(next & 0x7f) << shift;
    if ((next & 0x80) == 0) {
      return value;
    }
  }
}

double Reader::f64() {
  const std::string_view raw = take(8);
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    bits = (bits << 8) | static_cast<std::uint8_t>(raw[i]);
  }
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double Reader::watts() {
  const double value = f64();
  PS_REQUIRE(std::isfinite(value), "watt field must be finite");
  PS_REQUIRE(value >= 0.0, "watt field must be non-negative");
  return value;
}

std::string Reader::name() {
  std::string value;
  name(value);
  return value;
}

void Reader::name(std::string& into) {
  const std::string_view value = blob();
  PS_REQUIRE(!value.empty(), "empty name");
  into.assign(value);
}

std::string_view Reader::blob() { return take(count(1)); }

std::vector<double> Reader::watts_vector() {
  std::vector<double> values;
  watts_vector(values);
  return values;
}

void Reader::watts_vector(std::vector<double>& into) {
  const std::uint64_t n = count(8);
  into.clear();
  into.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    into.push_back(watts());
  }
}

std::uint64_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = varint();
  PS_REQUIRE(n <= remaining() / min_element_bytes,
             "count claims more elements than the payload holds");
  return n;
}

std::uint32_t Reader::u32() {
  const std::string_view raw = take(4);
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint8_t>(raw[i]);
  }
  return value;
}

void Reader::finish() const {
  PS_REQUIRE(pos_ == bytes_.size(), "unexpected trailing bytes");
}

}  // namespace ps::core::wire
