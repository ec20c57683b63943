#include "net/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/wire.hpp"
#include "net/framing.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::net {
namespace {

DaemonSnapshot example_snapshot() {
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = 2'880.0;
  snapshot.launch_barrier_met = true;
  snapshot.allocations = 7;
  SnapshotJob first;
  first.name = "lulesh-512";
  first.sequence = 6;
  // Deliberately non-terminating decimals: the format must round-trip
  // every double bit-for-bit, same as the wire.
  first.caps_watts = {543.0 / 7.0, 181.25, 200.0 / 3.0};
  SnapshotJob second;
  second.name = "amg-256";
  second.sequence = 5;
  second.caps_watts = {152.0, 190.625};
  snapshot.jobs = {first, second};
  return snapshot;
}

std::string unique_path(const std::string& tag) {
  return "/tmp/ps-snapshot-" + tag + "-" + std::to_string(::getpid()) +
         ".snap";
}

TEST(SnapshotTest, SerializeParseRoundTripsExactly) {
  const DaemonSnapshot snapshot = example_snapshot();
  const DaemonSnapshot parsed = parse_snapshot(serialize(snapshot));
  EXPECT_EQ(parsed, snapshot);
}

TEST(SnapshotTest, AllocatedWattsSumsEveryJob) {
  const DaemonSnapshot snapshot = example_snapshot();
  double expected = 0.0;
  for (const SnapshotJob& job : snapshot.jobs) {
    for (const double cap : job.caps_watts) {
      expected += cap;
    }
  }
  EXPECT_DOUBLE_EQ(snapshot.allocated_watts(), expected);
}

TEST(SnapshotTest, ChecksumGuardsTheWholeBody) {
  const std::string bytes = serialize(example_snapshot());
  // Flip the lowest mantissa bit of one cap: still a perfectly valid
  // grammar (a finite, non-negative watt value), so only the checksum
  // can tell.
  const std::size_t pos = test::find_f64(bytes, 181.25);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_THROW(static_cast<void>(parse_snapshot(test::flip(bytes, pos))),
               Error);
}

TEST(SnapshotTest, RejectsTruncatedInput) {
  const std::string bytes = serialize(example_snapshot());
  // Drop the 4-byte CRC-32 trailer — the shape a torn write leaves.
  EXPECT_THROW(
      static_cast<void>(parse_snapshot(bytes.substr(0, bytes.size() - 4))),
      Error);
  EXPECT_THROW(static_cast<void>(parse_snapshot("")), Error);
}

TEST(SnapshotTest, RejectsDuplicateJobNames) {
  DaemonSnapshot snapshot = example_snapshot();
  snapshot.jobs.push_back(snapshot.jobs.front());
  EXPECT_THROW(static_cast<void>(parse_snapshot(serialize(snapshot))),
               Error);
}

TEST(SnapshotTest, SaveLoadRoundTripsThroughDisk) {
  const std::string path = unique_path("roundtrip");
  const DaemonSnapshot snapshot = example_snapshot();
  save_snapshot(path, snapshot);
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, snapshot);

  // Saving again replaces atomically — no stale content bleeds through.
  DaemonSnapshot updated = snapshot;
  updated.allocations = 8;
  save_snapshot(path, updated);
  const auto reloaded = load_snapshot(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->allocations, 8u);
  std::remove(path.c_str());
}

DaemonSnapshot hetero_snapshot() {
  DaemonSnapshot snapshot = example_snapshot();
  // lulesh gains a GPU domain; amg stays CPU-only — the mixed-cluster
  // shape, where a CPU-only job writes an empty GPU caps vector.
  snapshot.jobs[0].gpu_caps_watts = {800.0 / 7.0, 215.375, 290.0 / 3.0};
  return snapshot;
}

TEST(SnapshotTest, V3RoundTripsGpuCapsExactly) {
  const DaemonSnapshot snapshot = hetero_snapshot();
  const std::string bytes = serialize(snapshot);
  EXPECT_EQ(core::wire::peek_tag(bytes), core::wire::Tag::kSnapshot);
  const DaemonSnapshot parsed = parse_snapshot(bytes);
  EXPECT_EQ(parsed, snapshot);
  // allocated_watts() spans both domains.
  double expected = 0.0;
  for (const SnapshotJob& job : snapshot.jobs) {
    for (const double cap : job.caps_watts) {
      expected += cap;
    }
    for (const double cap : job.gpu_caps_watts) {
      expected += cap;
    }
  }
  EXPECT_DOUBLE_EQ(parsed.allocated_watts(), expected);
}

TEST(SnapshotTest, V3MixedClusterKeepsCpuOnlyJobsBare) {
  // A single-domain job of a mixed cluster writes its GPU caps as one
  // zero count byte right after its caps — and parses back empty.
  const DaemonSnapshot snapshot = hetero_snapshot();
  const std::string bytes = serialize(snapshot);
  const std::size_t last_cap =
      test::find_f64(bytes, snapshot.jobs[1].caps_watts.back());
  ASSERT_NE(last_cap, std::string::npos);
  EXPECT_EQ(bytes[last_cap + 8], '\0');
  const DaemonSnapshot parsed = parse_snapshot(bytes);
  ASSERT_EQ(parsed.jobs.size(), 2u);
  EXPECT_FALSE(parsed.jobs[0].gpu_caps_watts.empty());
  EXPECT_TRUE(parsed.jobs[1].gpu_caps_watts.empty());
}

TEST(SnapshotTest, CpuOnlySnapshotStaysV2ByteCompatible) {
  // A CPU-only snapshot in the one snapshot grammar, pinned byte for
  // byte, CRC-32 trailer included.
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = 2'880.0;
  snapshot.launch_barrier_met = true;
  snapshot.allocations = 7;
  SnapshotJob job;
  job.name = "a";
  job.sequence = 6;
  job.caps_watts = {181.25};
  snapshot.jobs = {job};
  const std::string bytes = serialize(snapshot);
  EXPECT_EQ(test::hex(bytes),
            "06"                      // tag: snapshot
            "000000000080a640"        // budget 2880
            "00"                      // budget_epoch 0
            "00"                      // fence 0
            "01"                      // barrier met
            "07"                      // allocations 7
            "01"                      // one job:
            "0161" "06"               //   "a", sequence 6
            "01" "0000000000a86640"   //   caps 181.25
            "00"                      //   no GPU caps
            "121d3ad9");              // CRC-32 of the bytes before it
  EXPECT_EQ(parse_snapshot(bytes), snapshot);
}

TEST(SnapshotTest, EmergencyFlagRidesInTheFlagsByte) {
  DaemonSnapshot snapshot = example_snapshot();
  snapshot.budget_epoch = 3;
  snapshot.budget_emergency = true;
  const std::string bytes = serialize(snapshot);
  // tag, 8-byte budget, epoch 3, fence 0, then the flags byte.
  constexpr std::size_t kFlagsAt = 1 + 8 + 1 + 1;
  EXPECT_EQ(static_cast<unsigned char>(bytes[kFlagsAt]), 0x03u);
  EXPECT_EQ(parse_snapshot(bytes), snapshot);
  snapshot.launch_barrier_met = false;
  EXPECT_EQ(parse_snapshot(serialize(snapshot)), snapshot);

  // An unknown flag bit is refused even under a valid checksum.
  std::string unknown = bytes.substr(0, bytes.size() - 4);
  unknown[kFlagsAt] = static_cast<char>(0x07);
  const std::uint32_t crc = crc32(unknown);
  for (int byte = 0; byte < 4; ++byte) {
    unknown.push_back(static_cast<char>((crc >> (8 * byte)) & 0xffu));
  }
  EXPECT_THROW(static_cast<void>(parse_snapshot(unknown)), InvalidArgument);
}

TEST(SnapshotTest, RejectsGpuCapsCountMismatch) {
  // serialize() is a plain writer; the parser owns the shape check.
  DaemonSnapshot snapshot = hetero_snapshot();
  snapshot.jobs[0].gpu_caps_watts.pop_back();
  EXPECT_THROW(static_cast<void>(parse_snapshot(serialize(snapshot))),
               Error);
}

TEST(SnapshotTest, ChecksumGuardsTheGpuLineToo) {
  const std::string bytes = serialize(hetero_snapshot());
  const std::size_t pos = test::find_f64(bytes, 215.375);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_THROW(static_cast<void>(parse_snapshot(test::flip(bytes, pos))),
               Error);
}

TEST(SnapshotTest, MissingFileLoadsAsColdStart) {
  EXPECT_EQ(load_snapshot(unique_path("missing")), std::nullopt);
}

TEST(SnapshotTest, CorruptFileLoadsAsColdStart) {
  const std::string path = unique_path("corrupt");
  // Garbage, and a well-formed snapshot in the text form earlier builds
  // wrote: neither is this grammar, so both restart cold.
  for (const char* contents :
       {"powerstack-snapshot v1\nbudget garbage\n",
        "powerstack-snapshot v2\nbudget 2880\nbudget_epoch 0\nbarrier 1\n"
        "allocations 7\njobs 1\njob a\nsequence 6\ncaps 181.25\n"
        "checksum 00000000\n"}) {
    {
      std::ofstream out(path);
      out << contents;
    }
    EXPECT_EQ(load_snapshot(path), std::nullopt);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ps::net
