#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ps::core::wire {

/// The first byte of every payload the stack writes: the flat and rack
/// coordination messages, the daemon snapshot, and the four HA messages
/// share one tag space, so one byte tells any receiver what it holds.
/// Text bytes (a stray or pre-binary payload starts with an ASCII
/// letter) are not tags.
enum class Tag : std::uint8_t {
  kSample = 1,
  kPolicy = 2,
  kBudget = 3,
  kRackSample = 4,
  kRackPolicy = 5,
  kSnapshot = 6,
  kHaSync = 7,
  kHaUpdate = 8,
  kHaHeartbeat = 9,
  kHaAck = 10,
};

/// The payload's tag, or nullopt for an empty payload or a byte that is
/// not a tag.
[[nodiscard]] std::optional<Tag> peek_tag(std::string_view payload) noexcept;

/// The one encoder of the binary grammar. Integers are LEB128 varints
/// (7 bits per byte, least significant group first, minimal length),
/// doubles are 8 little-endian IEEE-754 bytes, strings and double vectors
/// are a varint count followed by their bytes or doubles, and a flag or
/// enum is one byte. The first byte written is the message tag.
class Writer {
 public:
  explicit Writer(Tag tag);

  void byte(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void varint(std::uint64_t value);
  void f64(double value);
  void string(std::string_view value);
  void f64s(const std::vector<double>& values);
  /// Fixed 4-byte little-endian word (the snapshot's CRC-32 trailer).
  void u32(std::uint32_t value);

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// The one bounds-checked decoder. Every read throws ps::InvalidArgument
/// instead of running past the payload: a truncated field, a varint
/// longer than 64 bits or not in its minimal form, and a count that
/// claims more elements than the bytes left could hold are all refused
/// before anything is allocated for them.
class Reader {
 public:
  /// Checks the tag byte against `expected`.
  Reader(std::string_view payload, Tag expected);

  [[nodiscard]] std::uint8_t byte();
  [[nodiscard]] bool flag();  ///< One byte, 0 or 1.
  [[nodiscard]] std::uint64_t varint();
  /// A finite, non-negative double — every watt field on the wire.
  [[nodiscard]] double watts();
  /// A non-empty string.
  [[nodiscard]] std::string name();
  /// The same, assigned to `into`, whose capacity it reuses.
  void name(std::string& into);
  /// A length-prefixed byte string (an embedded payload).
  [[nodiscard]] std::string_view blob();
  /// A count of watt values followed by the values.
  [[nodiscard]] std::vector<double> watts_vector();
  /// The same, assigned to `into`, whose capacity it reuses. On a throw
  /// `into` holds the values read before the bad one.
  void watts_vector(std::vector<double>& into);
  /// An element count, checked against the bytes left given that every
  /// element takes at least `min_element_bytes` (>= 1).
  [[nodiscard]] std::uint64_t count(std::size_t min_element_bytes);
  [[nodiscard]] std::uint32_t u32();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// Throws unless every byte was consumed.
  void finish() const;

 private:
  std::string_view take(std::size_t length);
  [[nodiscard]] double f64();

  std::string_view bytes_;
  std::size_t pos_ = 1;
};

}  // namespace ps::core::wire
