// Wire form of the dynamic-budget protocol: BudgetMessage round-trips,
// the epoch field of PolicyMessage, pinned bytes, and tag-only dispatch.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/endpoint.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::core {
namespace {

TEST(BudgetWireTest, RoundTripsExactlyAtExactFidelity) {
  BudgetMessage message;
  message.epoch = 42;
  message.budget_watts = 2'877.3341077281243;  // not representable short
  message.emergency = true;
  const BudgetMessage parsed =
      parse_budget_message(serialize(message, WireFidelity::kExact));
  EXPECT_EQ(parsed, message);
  // The bit pattern survives, not an approximation.
  EXPECT_EQ(parsed.budget_watts, message.budget_watts);
}

TEST(BudgetWireTest, DisplayFidelityIsStillValidWire) {
  // The one budget form, pinned: tag, epoch, the budget's 8 bytes, flag.
  BudgetMessage message;
  message.epoch = 1;
  message.budget_watts = 1'234.5;
  const std::string wire = serialize(message);
  EXPECT_EQ(test::hex(wire), "03" "01" "00000000004a9340" "00");
  const BudgetMessage parsed = parse_budget_message(wire);
  EXPECT_EQ(parsed, message);
  EXPECT_FALSE(parsed.emergency);
}

TEST(BudgetWireTest, EmergencyFlagRoundTrips) {
  BudgetMessage calm;
  calm.epoch = 2;
  calm.budget_watts = 900.0;
  EXPECT_FALSE(parse_budget_message(serialize(calm)).emergency);
  calm.emergency = true;
  EXPECT_TRUE(parse_budget_message(serialize(calm)).emergency);
}

TEST(BudgetWireTest, MalformedMessagesRejected) {
  BudgetMessage good;
  good.epoch = 1;
  good.budget_watts = 900.0;
  const std::string wire = serialize(good);
  ASSERT_EQ(parse_budget_message(wire), good);
  const auto with = [&good](auto mutate) {
    BudgetMessage message = good;
    mutate(message);
    return serialize(message);
  };
  std::string non_minimal_epoch = wire;
  non_minimal_epoch.replace(1, 1, "\x81\x00", 2);
  const std::vector<std::string> malformed = {
      "",
      "powerstack-budget v1\nepoch 1\nbudget 900\nemergency 0\n",
      serialize(PolicyMessage{}),  // wrong tag
      wire.substr(0, wire.size() - 1),  // truncated
      wire + '\0',                     // trailing byte
      non_minimal_epoch,
      with([](BudgetMessage& m) { m.epoch = 0; }),
      with([](BudgetMessage& m) { m.budget_watts = 0.0; }),
      with([](BudgetMessage& m) { m.budget_watts = -900.0; }),
      with([](BudgetMessage& m) {
        m.budget_watts = std::numeric_limits<double>::quiet_NaN();
      }),
      with([](BudgetMessage& m) {
        m.budget_watts = std::numeric_limits<double>::infinity();
      }),
      wire.substr(0, wire.size() - 1) + "\x02",  // emergency 2
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    EXPECT_THROW(static_cast<void>(parse_budget_message(malformed[i])),
                 InvalidArgument)
        << "accepted case " << i;
  }
}

TEST(BudgetWireTest, KindIsJudgedByHeaderAlone) {
  // The tag byte alone decides, before any field is read.
  EXPECT_EQ(wire_message_kind("\x03"), WireMessageKind::kBudget);
  EXPECT_EQ(wire_message_kind(std::string_view("\x01garbage")),
            WireMessageKind::kSample);
  EXPECT_EQ(wire_message_kind("\x02"), WireMessageKind::kPolicy);
  EXPECT_EQ(wire_message_kind("\x04"), WireMessageKind::kRackSample);
  EXPECT_EQ(wire_message_kind("\x05"), WireMessageKind::kRackPolicy);
  // Snapshot and HA tags share the tag space but are not coordination
  // messages; text and unassigned bytes are not tags at all.
  EXPECT_EQ(wire_message_kind("\x06"), WireMessageKind::kUnknown);
  EXPECT_EQ(wire_message_kind("\x0a"), WireMessageKind::kUnknown);
  EXPECT_EQ(wire_message_kind("powerstack-budget v1\n"),
            WireMessageKind::kUnknown);
  EXPECT_EQ(wire_message_kind(std::string_view("\0", 1)),
            WireMessageKind::kUnknown);
  EXPECT_EQ(wire_message_kind(""), WireMessageKind::kUnknown);
}

TEST(PolicyEpochWireTest, EpochZeroSerializesAsTheV1ByteForm) {
  // Epoch 0 (a never-revised budget) is the single byte 0x00, pinned.
  PolicyMessage message;
  message.sequence = 7;
  message.job_name = "lulesh";
  message.host_caps_watts = {180.0, 190.0};
  const std::string wire = serialize(message);
  EXPECT_EQ(test::hex(wire),
            "02" "07" "06" "6c756c657368"                   // policy 7
            "02" "0000000000806640" "0000000000c06740"      // caps
            "00"                                            // no GPU caps
            "00"                                            // budget_epoch 0
            "00");                                          // fence 0
  const PolicyMessage parsed = parse_policy_message(wire);
  EXPECT_EQ(parsed.budget_epoch, 0u);
  EXPECT_EQ(parsed, message);
}

TEST(PolicyEpochWireTest, NonZeroEpochGainsAFifthLineAndRoundTrips) {
  PolicyMessage message;
  message.sequence = 9;
  message.job_name = "lulesh";
  message.host_caps_watts = {181.25, 190.5};
  message.budget_epoch = 4;
  const std::string wire = serialize(message, WireFidelity::kExact);
  // Same length as the epoch-0 form: the epoch byte is 4, then fence 0.
  message.budget_epoch = 0;
  EXPECT_EQ(wire.size(), serialize(message).size());
  EXPECT_EQ(wire[wire.size() - 2], '\x04');
  message.budget_epoch = 4;
  EXPECT_EQ(parse_policy_message(wire), message);
}

TEST(PolicyEpochWireTest, ExplicitEpochZeroLineRejected) {
  // Zero has exactly one form: a padded zero (0x80 0x00) in the epoch
  // field is a protocol error, not a second spelling of epoch 0.
  PolicyMessage message;
  message.sequence = 1;
  message.job_name = "x";
  message.host_caps_watts = {100.0};
  std::string wire = serialize(message);
  wire.replace(wire.size() - 2, 1, "\x80\x00", 2);
  EXPECT_THROW(static_cast<void>(parse_policy_message(wire)),
               InvalidArgument);
}

}  // namespace
}  // namespace ps::core
