#include "net/framing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace ps::net {
namespace {

TEST(FramingTest, RoundTripsOneFrame) {
  FrameDecoder decoder;
  decoder.feed(encode_frame("hello"));
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FramingTest, PreservesMessageBoundaries) {
  FrameDecoder decoder;
  decoder.feed(encode_frame("first") + encode_frame("") +
               encode_frame("third\nwith newline"));
  EXPECT_EQ(decoder.next(), "first");
  EXPECT_EQ(decoder.next(), "");
  EXPECT_EQ(decoder.next(), "third\nwith newline");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FramingTest, ReassemblesByteAtATime) {
  const std::string wire = encode_frame("reassembled payload");
  FrameDecoder decoder;
  std::string out;
  for (const char byte : wire) {
    decoder.feed(std::string_view(&byte, 1));
    if (auto payload = decoder.next()) {
      out = *payload;
    }
  }
  EXPECT_EQ(out, "reassembled payload");
}

TEST(FramingTest, IncompleteFrameStaysBuffered) {
  const std::string wire = encode_frame("pending");
  FrameDecoder decoder;
  decoder.feed(std::string_view(wire).substr(0, wire.size() - 1));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_GT(decoder.buffered_bytes(), 0u);
  decoder.feed(std::string_view(wire).substr(wire.size() - 1));
  EXPECT_EQ(decoder.next(), "pending");
}

TEST(FramingTest, RejectsOversizedFrame) {
  // A length prefix far beyond kMaxFrameBytes: decoding must throw
  // rather than attempt the allocation.
  FrameDecoder decoder;
  decoder.feed(std::string_view("\xFF\xFF\xFF\xFF", 4));
  EXPECT_THROW(static_cast<void>(decoder.next()), ps::Error);
}

TEST(FramingTest, RejectsOversizedEncode) {
  EXPECT_THROW(static_cast<void>(
                   encode_frame(std::string(kMaxFrameBytes + 1, 'x'))),
               ps::Error);
}

TEST(FramingTest, ChecksumRoundTrips) {
  // Known-answer test: CRC-32 ("IEEE") of "123456789" is 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

/// Table-free CRC-32: one polynomial step per bit, the definition both
/// crc32 paths must reproduce. `crc` is the raw register.
std::uint32_t bitwise_crc32_step(std::uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc;
}

std::uint32_t bitwise_crc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc = bitwise_crc32_step(crc, static_cast<unsigned char>(c));
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string pseudo_random_bytes(std::size_t size) {
  std::string buffer(size, '\0');
  std::uint32_t state = 0x2545F491u;
  for (char& c : buffer) {
    state = state * 1664525u + 1013904223u;
    c = static_cast<char>(state >> 24);
  }
  return buffer;
}

TEST(FramingTest, ChecksumMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length through 2 KiB at every start offset within a 16-byte
  // block covers each split between the 64-byte folds, the 16-byte folds
  // and the byte tail of the carry-less path, and between the 8-byte
  // folds and the byte tail of the table path, aligned or not. The
  // portable path is checked on its own, so a host that dispatches crc32
  // to the carry-less path tests both.
  constexpr std::size_t kMaxLength = 2048;
  const std::string buffer = pseudo_random_bytes(16 + kMaxLength);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    // The reference register after each prefix, extended a byte at a time.
    std::uint32_t reference = 0xFFFFFFFFu;
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      const std::uint32_t expected = reference ^ 0xFFFFFFFFu;
      ASSERT_EQ(crc32(bytes), expected)
          << "offset " << offset << ", length " << length;
      ASSERT_EQ(crc32_portable(bytes), expected)
          << "portable, offset " << offset << ", length " << length;
      if (length < kMaxLength) {
        reference = bitwise_crc32_step(
            reference, static_cast<unsigned char>(buffer[offset + length]));
      }
    }
  }
  // One frame the size of a 2,500-job rack sample, with an odd tail.
  const std::string frame = pseudo_random_bytes(140 * 1024 + 13);
  const std::uint32_t expected = bitwise_crc32(frame);
  EXPECT_EQ(crc32(frame), expected);
  EXPECT_EQ(crc32_portable(frame), expected);
}

TEST(FramingTest, RejectsCorruptedPayload) {
  // Flip one payload byte: the line grammar downstream might still parse
  // (a changed digit is a validly different number), so the framing layer
  // must be the one to notice.
  std::string wire = encode_frame("observed 214.125 220.000");
  wire[kFrameHeaderBytes + 10] ^= 0x01;
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(static_cast<void>(decoder.next()), ps::Error);
}

TEST(FramingTest, RejectsCorruptedChecksumByte) {
  std::string wire = encode_frame("payload");
  wire[5] ^= 0xFF;  // a CRC byte, not the length
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(static_cast<void>(decoder.next()), ps::Error);
}

TEST(FramingTest, TornFrameOneByteAtATimeNeverMisframes) {
  // A hostile or lossy peer dribbles the stream one byte at a time; the
  // decoder must never emit a partial payload and must produce exactly
  // the frames that were sent, in order.
  const std::string wire = encode_frame("first") + encode_frame("") +
                           encode_frame(std::string(1000, 'z'));
  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (const char byte : wire) {
    decoder.feed(std::string_view(&byte, 1));
    while (auto payload = decoder.next()) {
      frames.push_back(*payload);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "first");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], std::string(1000, 'z'));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FramingTest, CorruptedLengthPrefixesRejectCleanly) {
  // Table of hostile length prefixes. Anything above the cap must throw;
  // anything at or below it must simply wait for more bytes without
  // allocating the claimed length up front.
  const std::uint32_t hostile[] = {0xFFFFFFFFu, 0x80000000u,
                                   (16u << 20) + 1u};
  for (const std::uint32_t length : hostile) {
    FrameDecoder decoder;
    std::string prefix;
    prefix.push_back(static_cast<char>((length >> 24) & 0xff));
    prefix.push_back(static_cast<char>((length >> 16) & 0xff));
    prefix.push_back(static_cast<char>((length >> 8) & 0xff));
    prefix.push_back(static_cast<char>(length & 0xff));
    decoder.feed(prefix);
    EXPECT_THROW(static_cast<void>(decoder.next()), ps::Error)
        << "length " << length;
  }
}

TEST(FramingTest, HostileMaxLengthHeaderDoesNotPreallocate) {
  // A header claiming exactly the 16 MiB cap is legal, but the decoder
  // must buffer only the bytes actually received — a few header bytes —
  // not reserve the claimed 16 MiB (no OOM amplification from a 8-byte
  // write).
  FrameDecoder decoder;
  std::string header;
  const std::uint32_t length = 16u << 20;
  header.push_back(static_cast<char>((length >> 24) & 0xff));
  header.push_back(static_cast<char>((length >> 16) & 0xff));
  header.push_back(static_cast<char>((length >> 8) & 0xff));
  header.push_back(static_cast<char>(length & 0xff));
  header.append(4, '\0');  // an arbitrary CRC — never checked until complete
  decoder.feed(header);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), kFrameHeaderBytes);

  // Dribble a little payload: buffered bytes must track exactly what was
  // fed, proving there is no speculative allocation of the claimed size.
  decoder.feed(std::string(128, 'a'));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), kFrameHeaderBytes + 128);
}

TEST(FramingTest, GarbageAfterValidFrameIsDetected) {
  // A valid frame followed by a stream whose next "header" is random
  // garbage: either the length is hostile (throw) or the eventual CRC
  // check fails — garbage can never silently become a frame.
  FrameDecoder decoder;
  decoder.feed(encode_frame("good"));
  EXPECT_EQ(decoder.next(), "good");
  // 8 header bytes + "oops": 12 bytes. sizeof counts the embedded NULs;
  // the - 1 drops the literal's terminator.
  static constexpr char kGarbage[] =
      "\x00\x00\x00\x04"
      "\x12\x34\x56\x78"
      "oops";
  decoder.feed(std::string_view(kGarbage, sizeof(kGarbage) - 1));
  EXPECT_THROW(static_cast<void>(decoder.next()), ps::Error);
}

}  // namespace
}  // namespace ps::net
