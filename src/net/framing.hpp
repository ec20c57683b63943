#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ps::net {

/// Frames larger than this are treated as a protocol violation. A
/// 100k-host sample message is ~2 MB; 16 MB leaves an order of magnitude
/// of headroom while still bounding a malicious or corrupt length prefix.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Bytes of framing overhead per message: a 4-byte big-endian length
/// prefix followed by a 4-byte big-endian CRC-32 of the payload.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) of `bytes`.
/// The framing checksum; also reused to guard daemon snapshots on disk.
/// On an x86 host with PCLMULQDQ (checked once, at the first call) an
/// input of 64 bytes or more is folded by carry-less multiplication, 64
/// bytes per step, and its last 0-15 bytes go through the table loop of
/// crc32_portable; every other input takes crc32_portable. The values are
/// the standard CRC-32 ones either way, so frames and snapshots written
/// by a byte-at-a-time implementation verify unchanged.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

/// The portable path of crc32: slicing-by-8 (eight table lookups fold
/// eight bytes). Exposed so that a PCLMULQDQ host can test it too.
[[nodiscard]] std::uint32_t crc32_portable(std::string_view bytes);

/// Wraps a payload in the transport framing: a 4-byte big-endian length
/// prefix and a 4-byte big-endian CRC-32 of the payload, followed by the
/// payload bytes. The prefix is what lets a byte stream carry many
/// messages back to back without a sentinel, and the checksum is what
/// lets a receiver tell a corrupted frame from a validly different one
/// (the message grammar alone cannot: a flipped mantissa bit still
/// parses).
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental decoder for the other direction: feed it whatever the
/// socket produced, take complete frames out as they form. Tolerates
/// arbitrary fragmentation (a frame split across many reads, many frames
/// in one read). Never allocates ahead of the bytes actually received, so
/// a hostile length prefix cannot balloon memory. Throws ps::Error when a
/// length prefix exceeds `max_frame_bytes` or a payload fails its CRC —
/// the connection is unrecoverable at that point because the stream
/// offset is no longer trustworthy.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::string_view bytes);

  /// Extracts the next complete frame's payload, or nullopt if more bytes
  /// are needed.
  [[nodiscard]] std::optional<std::string> next();

  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size();
  }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
};

}  // namespace ps::net
