#include "ha/replication.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/endpoint.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::ha {
namespace {

net::DaemonSnapshot make_state(std::uint64_t fence) {
  net::DaemonSnapshot state;
  state.system_budget_watts = 3680.0;
  state.budget_epoch = 2;
  state.fence_epoch = fence;
  state.launch_barrier_met = true;
  state.allocations = 17;
  net::SnapshotJob a;
  a.name = "a-wasteful";
  a.sequence = 17;
  a.caps_watts = {215.5, 216.25};
  net::SnapshotJob b;
  b.name = "b-hungry";
  b.sequence = 17;
  b.caps_watts = {230.0, 230.0};
  state.jobs = {a, b};
  return state;
}

/// An update whose header fields are chosen apart from its state.
std::string update_payload(std::uint64_t fence, std::uint64_t rounds,
                           std::uint64_t state_fence) {
  core::wire::Writer out(core::wire::Tag::kHaUpdate);
  out.varint(fence);
  out.varint(rounds);
  out.string(net::serialize(make_state(state_fence)));
  return std::move(out).take();
}

TEST(ReplicationCodecTest, KindDispatchReadsTheFirstLine) {
  // The tag byte alone decides.
  EXPECT_EQ(ha_message_kind(serialize(HaSyncRequest{3})),
            HaMessageKind::kSync);
  EXPECT_EQ(ha_message_kind(serialize(HaHeartbeat{1, 9})),
            HaMessageKind::kHeartbeat);
  EXPECT_EQ(ha_message_kind(serialize(HaAck{9})), HaMessageKind::kAck);
  HaStateUpdate update;
  update.state = make_state(0);
  update.rounds = update.state.allocations;
  EXPECT_EQ(ha_message_kind(serialize(update)), HaMessageKind::kUpdate);
  // A snapshot or a coordination message shares the tag space but is
  // not an HA message; text is not a tag.
  EXPECT_EQ(ha_message_kind(net::serialize(make_state(0))),
            HaMessageKind::kUnknown);
  EXPECT_EQ(ha_message_kind(core::serialize(core::BudgetMessage{1, 1.0})),
            HaMessageKind::kUnknown);
  EXPECT_EQ(ha_message_kind("powerstack-ha-ack v1\nrounds 1\n"),
            HaMessageKind::kUnknown);
  EXPECT_EQ(ha_message_kind(""), HaMessageKind::kUnknown);
}

TEST(ReplicationCodecTest, SyncHeartbeatAckRoundTrip) {
  const HaSyncRequest sync = parse_sync_request(serialize(HaSyncRequest{7}));
  EXPECT_EQ(sync.fence_epoch, 7u);

  const HaHeartbeat heartbeat =
      parse_heartbeat(serialize(HaHeartbeat{2, 41}));
  EXPECT_EQ(heartbeat.fence_epoch, 2u);
  EXPECT_EQ(heartbeat.rounds, 41u);

  const HaAck ack = parse_ack(serialize(HaAck{41}));
  EXPECT_EQ(ack.rounds, 41u);
}

TEST(ReplicationCodecTest, StateUpdateRoundTripsAtFenceZeroAndBeyond) {
  for (const std::uint64_t fence : {std::uint64_t{0}, std::uint64_t{3}}) {
    HaStateUpdate update;
    update.state = make_state(fence);
    update.fence_epoch = fence;
    update.rounds = update.state.allocations;
    const HaStateUpdate parsed = parse_state_update(serialize(update));
    EXPECT_EQ(parsed.fence_epoch, fence);
    EXPECT_EQ(parsed.rounds, 17u);
    EXPECT_EQ(parsed.state.fence_epoch, fence);
    EXPECT_DOUBLE_EQ(parsed.state.system_budget_watts, 3680.0);
    EXPECT_EQ(parsed.state.budget_epoch, 2u);
    ASSERT_EQ(parsed.state.jobs.size(), 2u);
    EXPECT_EQ(parsed.state.jobs[0].name, "a-wasteful");
    EXPECT_EQ(parsed.state.jobs[0].caps_watts,
              (std::vector<double>{215.5, 216.25}));
  }
}

TEST(ReplicationCodecTest, UpdateRejectsFenceDisagreeingWithItsState) {
  // Header claims fence 7 over a fence-3 snapshot: assembled wrong, not
  // merely corrupted — the receiver must refuse it.
  EXPECT_THROW(
      static_cast<void>(parse_state_update(update_payload(7, 17, 3))),
      ps::Error);
}

TEST(ReplicationCodecTest, UpdateRejectsRoundsDisagreeingWithItsState) {
  EXPECT_THROW(
      static_cast<void>(parse_state_update(update_payload(3, 99, 3))),
      ps::Error);
  // The same helper with agreeing fields parses: the refusals above are
  // the consistency checks, not a mis-assembled payload.
  EXPECT_EQ(parse_state_update(update_payload(3, 17, 3)).rounds, 17u);
}

TEST(ReplicationCodecTest, UpdateRejectsCorruptedEmbeddedState) {
  HaStateUpdate update;
  update.state = make_state(3);
  update.fence_epoch = 3;
  update.rounds = update.state.allocations;
  const std::string payload = serialize(update);
  // Flip one mantissa bit of a cap inside the embedded snapshot: its
  // CRC-32 trailer no longer matches and the whole update is refused.
  const std::size_t pos = test::find_f64(payload, 215.5);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_THROW(static_cast<void>(parse_state_update(test::flip(payload, pos))),
               ps::Error);
}

TEST(ReplicationCodecTest, TruncatedMessagesThrow) {
  HaStateUpdate update;
  update.state = make_state(1);
  update.fence_epoch = 1;
  update.rounds = update.state.allocations;
  const std::string sync = serialize(HaSyncRequest{1});
  const std::string heartbeat = serialize(HaHeartbeat{1, 1});
  const std::string ack = serialize(HaAck{1});
  const std::string full = serialize(update);
  EXPECT_THROW(static_cast<void>(parse_sync_request(sync.substr(0, 1))),
               ps::Error);
  EXPECT_THROW(
      static_cast<void>(parse_heartbeat(heartbeat.substr(0, 2))),
      ps::Error);
  EXPECT_THROW(static_cast<void>(parse_ack(ack.substr(0, 1))), ps::Error);
  EXPECT_THROW(static_cast<void>(parse_state_update(
                   full.substr(0, full.size() - 1))),
               ps::Error);
  EXPECT_THROW(static_cast<void>(parse_ack(ack + '\0')), ps::Error);
  // A sync parser fed an ack (and vice versa) refuses too.
  EXPECT_THROW(static_cast<void>(parse_sync_request(ack)), ps::Error);
  EXPECT_THROW(static_cast<void>(parse_ack(sync)), ps::Error);
}

// A never-failed-over control plane writes fence 0 as the single byte
// 0x00 in every message that carries a fence; a fenced one differs only
// in that field.
TEST(ReplicationCodecTest, FenceZeroKeepsLegacyBytes) {
  core::PolicyMessage policy;
  policy.sequence = 4;
  policy.job_name = "job-a";
  policy.host_caps_watts = {200.0, 210.0};
  const std::string wire =
      core::serialize(policy, core::WireFidelity::kExact);
  EXPECT_EQ(test::hex(wire),
            "02" "04" "05" "6a6f622d61"                     // policy 4
            "02" "0000000000006940" "0000000000406a40"      // caps
            "00" "00"                                       // no GPU, epoch 0
            "00");                                          // fence 0

  policy.fence_epoch = 2;
  const std::string fenced =
      core::serialize(policy, core::WireFidelity::kExact);
  EXPECT_EQ(fenced.substr(0, fenced.size() - 1),
            wire.substr(0, wire.size() - 1));
  EXPECT_EQ(fenced.back(), '\x02');
  EXPECT_EQ(core::parse_policy_message(fenced).fence_epoch, 2u);

  EXPECT_EQ(test::hex(serialize(HaSyncRequest{0})), "0700");
  EXPECT_EQ(test::hex(serialize(HaHeartbeat{0, 17})), "090011");
  EXPECT_EQ(test::hex(serialize(HaAck{300})), "0aac02");

  // In the snapshot the fence follows the budget (8 bytes) and the
  // budget epoch (one byte here).
  net::DaemonSnapshot state = make_state(0);
  const std::string snapshot = net::serialize(state);
  EXPECT_EQ(snapshot[10], '\0');
  state.fence_epoch = 1;
  const std::string fenced_snapshot = net::serialize(state);
  EXPECT_EQ(fenced_snapshot[10], '\x01');
  EXPECT_EQ(fenced_snapshot.size(), snapshot.size());
  EXPECT_EQ(net::parse_snapshot(fenced_snapshot), state);
}

}  // namespace
}  // namespace ps::ha
