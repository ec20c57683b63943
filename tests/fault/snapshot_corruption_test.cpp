// Satellite: the snapshot corruption matrix. Every proper prefix of a
// serialized snapshot (a torn write) and every single-byte flip (bit
// rot, a bad sector) must be refused — by parse_snapshot, by
// load_snapshot (degrading the restart to a cold start, never a crash),
// and by the HA codec when the same bytes arrive as replication payload.
#include "net/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ha/replication.hpp"
#include "net/daemon.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::net {
namespace {

/// A CPU-only, a GPU and a fenced snapshot, so the matrix sweeps every
/// field the codec can emit with a non-default value.
DaemonSnapshot make_v2() {
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = 2880.0;
  snapshot.budget_epoch = 3;
  snapshot.launch_barrier_met = true;
  snapshot.allocations = 7;
  SnapshotJob job;
  job.name = "lulesh-512";
  job.sequence = 6;
  job.caps_watts = {181.25, 181.25};
  snapshot.jobs = {job};
  return snapshot;
}

DaemonSnapshot make_v3() {
  DaemonSnapshot snapshot = make_v2();
  snapshot.jobs[0].gpu_caps_watts = {140.5, 141.0};
  return snapshot;
}

DaemonSnapshot make_v4() {
  DaemonSnapshot snapshot = make_v2();
  snapshot.fence_epoch = 2;
  return snapshot;
}

// Every byte is guarded: the CRC-32 trailer covers everything before it
// and is itself the last four bytes.
void expect_every_prefix_refused(const std::string& bytes,
                                 const char* shape) {
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW(
        static_cast<void>(parse_snapshot(bytes.substr(0, length))),
        ps::Error)
        << shape << " truncated to " << length << " bytes parsed";
  }
}

void expect_every_flip_refused(const std::string& bytes, const char* shape) {
  for (std::size_t index = 0; index < bytes.size(); ++index) {
    EXPECT_THROW(static_cast<void>(parse_snapshot(test::flip(bytes, index))),
                 ps::Error)
        << shape << " with byte " << index << " flipped parsed";
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationIsRefused) {
  expect_every_prefix_refused(serialize(make_v2()), "cpu-only");
  expect_every_prefix_refused(serialize(make_v3()), "gpu");
  expect_every_prefix_refused(serialize(make_v4()), "fenced");
}

TEST(SnapshotCorruptionTest, EverySingleByteFlipIsRefused) {
  expect_every_flip_refused(serialize(make_v2()), "cpu-only");
  expect_every_flip_refused(serialize(make_v3()), "gpu");
  expect_every_flip_refused(serialize(make_v4()), "fenced");
}

TEST(SnapshotCorruptionTest, CorruptFileDegradesTheDaemonToAColdStart) {
  const std::string path = "/tmp/ps-snapcorrupt-" +
                           std::to_string(::getpid()) + ".snap";
  const std::string clean = serialize(make_v4());
  const std::string corrupted =
      test::flip(clean, test::find_f64(clean, 181.25));
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << corrupted;
  }

  EXPECT_FALSE(load_snapshot(path).has_value());

  DaemonOptions options;
  options.system_budget_watts = 2880.0;
  options.snapshot_path = path;
  const PowerDaemon daemon(options);
  EXPECT_EQ(daemon.stats().jobs_restored, 0u);
  EXPECT_EQ(daemon.stats().fence_epoch, 0u);  // corrupt fence not adopted
  std::remove(path.c_str());
}

// The standby applies exactly the same refusal: a replication update
// whose embedded state fails validation never replaces replicated state.
TEST(SnapshotCorruptionTest, CorruptReplicationPayloadIsRefusedByTheHaCodec) {
  const DaemonSnapshot state = make_v4();
  ha::HaStateUpdate update;
  update.state = state;
  update.fence_epoch = state.fence_epoch;
  update.rounds = state.allocations;
  const std::string payload = ha::serialize(update);
  const std::string clean = serialize(state);
  // The update ends with the snapshot bytes, length-prefixed.
  ASSERT_EQ(payload.substr(payload.size() - clean.size()), clean);
  const std::size_t state_at = payload.size() - clean.size();

  // The clean payload parses — the matrix below fails for corruption,
  // not because the harness assembled the frame wrong.
  ASSERT_EQ(ha::parse_state_update(payload).state, state);

  for (std::size_t index = state_at; index < payload.size(); ++index) {
    EXPECT_THROW(
        static_cast<void>(ha::parse_state_update(test::flip(payload, index))),
        ps::Error)
        << "update with state byte " << index - state_at << " flipped parsed";
  }
  for (std::size_t length = 0; length < payload.size(); ++length) {
    EXPECT_THROW(static_cast<void>(ha::parse_state_update(
                     payload.substr(0, length))),
                 ps::Error)
        << "update truncated to " << length << " bytes parsed";
  }
}

}  // namespace
}  // namespace ps::net
