#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/endpoint.hpp"
#include "core/wire.hpp"
#include "util/error.hpp"

namespace ps::core {
namespace {

struct MalformedCase {
  std::string name;
  std::string bytes;
};

SampleMessage rack_sample(const std::string& job, std::uint64_t sequence) {
  SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = job;
  sample.min_settable_cap_watts = 152.0;
  sample.host_observed_watts = {180.0};
  sample.host_needed_watts = {170.0};
  return sample;
}

RackSampleMessage valid_rack_sample() {
  RackSampleMessage message;
  message.rack = "r0";
  message.round = 1;
  message.samples = {rack_sample("a", 1), rack_sample("b", 1)};
  return message;
}

PolicyMessage rack_policy(const std::string& job, std::uint64_t sequence) {
  PolicyMessage policy;
  policy.sequence = sequence;
  policy.job_name = job;
  policy.host_caps_watts = {180.0};
  return policy;
}

RackPolicyMessage valid_rack_policy() {
  RackPolicyMessage message;
  message.rack = "r0";
  message.round = 1;
  message.rack_budget_watts = 360.0;
  message.policies = {rack_policy("a", 1), rack_policy("b", 1)};
  return message;
}

template <typename Message, typename Mutate>
std::string with(Message message, Mutate mutate) {
  mutate(message);
  return serialize(message);
}

/// A rack-sample frame whose job count is `jobs` while it carries one
/// sample: the count lies about how much follows.
std::string rack_sample_claiming(std::uint64_t jobs) {
  wire::Writer out(wire::Tag::kRackSample);
  out.string("r0");
  out.varint(1);
  out.varint(jobs);
  const std::string body = serialize(rack_sample("a", 1));
  std::string bytes = std::move(out).take();
  return bytes + body.substr(1);  // the embedded sample has no tag
}

// The batched rack-aggregate frames are the only messages whose grammar
// carries a count of embedded messages, so a torn or hostile frame can
// lie about how much follows. Every case here must be rejected before
// the parser walks past the end of the frame or allocates for elements
// the frame cannot hold. Companion file: endpoint_malformed_test.cpp
// (the flat sample and policy grammars).
std::vector<MalformedCase> malformed_rack_samples() {
  const std::string wire = serialize(valid_rack_sample());
  using M = RackSampleMessage;
  return {
      {"empty", ""},
      {"wrong_tag", serialize(valid_rack_policy())},
      {"flat_sample_tag", serialize(rack_sample("a", 1))},
      {"rack_name_with_space",
       with(valid_rack_sample(), [](M& m) { m.rack = "r 0"; })},
      {"empty_rack_name", with(valid_rack_sample(), [](M& m) { m.rack = ""; })},
      {"zero_jobs", with(valid_rack_sample(), [](M& m) { m.samples.clear(); })},
      {"jobs_count_exceeds_blocks", rack_sample_claiming(2)},
      {"jobs_count_below_blocks", rack_sample_claiming(0)},
      // The torn-frame family: the frame ends inside its last job.
      {"torn_block_short_one_byte", wire.substr(0, wire.size() - 1)},
      {"torn_block_half_missing", wire.substr(0, wire.size() / 2)},
      {"trailing_byte", wire + '\0'},
      // Hostile counts: a huge count must fail fast, not allocate or walk
      // the buffer.
      {"hostile_huge_job_count", rack_sample_claiming(1'000'000'000'000)},
      {"hostile_2_pow_62_job_count", rack_sample_claiming(1ull << 62)},
      {"hostile_max_job_count", rack_sample_claiming(~std::uint64_t{0})},
      // Job-order discipline: the aggregate must be name-ordered and
      // duplicate-free, or the root's name-keyed round order would not
      // match the aggregate's.
      {"duplicate_job_names",
       with(valid_rack_sample(),
            [](M& m) { m.samples[1].job_name = m.samples[0].job_name; })},
      {"out_of_order_job_names",
       with(valid_rack_sample(),
            [](M& m) { std::swap(m.samples[0], m.samples[1]); })},
      // The round header must agree with the newest embedded sequence.
      {"round_below_max_sequence",
       with(valid_rack_sample(), [](M& m) { m.samples[1].sequence = 2; })},
      {"round_above_max_sequence",
       with(valid_rack_sample(), [](M& m) { m.round = 3; })},
      {"corrupt_embedded_sample",
       with(valid_rack_sample(), [](M& m) {
         m.samples[0].min_settable_cap_watts =
             std::numeric_limits<double>::quiet_NaN();
       })},
  };
}

std::vector<MalformedCase> malformed_rack_policies() {
  const std::string wire = serialize(valid_rack_policy());
  using M = RackPolicyMessage;
  std::string hostile_count = wire;
  // After tag, "r0" (3 bytes), round (1) and rack_budget (8) comes the
  // one-byte job count; replace it with 2^64 - 1.
  hostile_count.replace(13, 1, std::string(9, '\xff') + "\x01");
  return {
      {"wrong_tag", serialize(valid_rack_sample())},
      {"zero_rack_budget",
       with(valid_rack_policy(), [](M& m) { m.rack_budget_watts = 0.0; })},
      {"nan_rack_budget", with(valid_rack_policy(),
                               [](M& m) {
                                 m.rack_budget_watts =
                                     std::numeric_limits<double>::quiet_NaN();
                               })},
      {"negative_rack_budget",
       with(valid_rack_policy(), [](M& m) { m.rack_budget_watts = -360.0; })},
      // The grant's self-consistency check: the advertised rack budget
      // must equal the sum of the caps it carries.
      {"rack_budget_disagrees_with_caps",
       with(valid_rack_policy(), [](M& m) { m.rack_budget_watts = 380.0; })},
      {"rack_budget_off_by_a_milliwatt",
       with(valid_rack_policy(), [](M& m) { m.rack_budget_watts += 1e-3; })},
      {"torn_policy_block", wire.substr(0, wire.size() - 3)},
      {"hostile_max_policy_count", hostile_count},
      {"duplicate_policy_job",
       with(valid_rack_policy(),
            [](M& m) { m.policies[1].job_name = m.policies[0].job_name; })},
      {"round_mismatch", with(valid_rack_policy(), [](M& m) { m.round = 2; })},
      {"trailing_garbage", wire + "garbage"},
  };
}

TEST(EndpointRackMalformedTest, RackSampleParserRejectsEveryCase) {
  ASSERT_EQ(parse_rack_sample_message(serialize(valid_rack_sample())),
            valid_rack_sample());
  for (const MalformedCase& test : malformed_rack_samples()) {
    EXPECT_THROW(static_cast<void>(parse_rack_sample_message(test.bytes)),
                 ps::Error)
        << "case '" << test.name << "' parsed without error";
  }
}

TEST(EndpointRackMalformedTest, RackPolicyParserRejectsEveryCase) {
  ASSERT_EQ(parse_rack_policy_message(serialize(valid_rack_policy())),
            valid_rack_policy());
  for (const MalformedCase& test : malformed_rack_policies()) {
    EXPECT_THROW(static_cast<void>(parse_rack_policy_message(test.bytes)),
                 ps::Error)
        << "case '" << test.name << "' parsed without error";
  }
}

TEST(EndpointRackMalformedTest, RackSampleRoundTripsBitForBit) {
  RackSampleMessage message;
  message.rack = "rack7";
  SampleMessage a;
  a.sequence = 11;
  a.job_name = "a-wasteful";
  a.min_settable_cap_watts = 152.0 + 1.0 / 3.0;
  a.host_observed_watts = {214.0001220703125, 0.1 + 0.2};
  a.host_needed_watts = {193.09999999999999, 7.0 / 9.0};
  SampleMessage b;
  b.sequence = 12;
  b.job_name = "b-hungry";
  b.min_settable_cap_watts = 152.0;
  b.host_observed_watts = {230.0};
  b.host_needed_watts = {250.0 / 3.0};
  b.gpu_min_cap_watts = 100.0 + 1.0 / 7.0;
  b.gpu_tdp_watts = 300.0;
  b.host_gpu_observed_watts = {120.5};
  b.host_gpu_needed_watts = {250.0 / 3.0};
  message.samples = {a, b};
  message.round = 12;  // max embedded sequence

  const std::string wire = serialize(message, WireFidelity::kExact);
  EXPECT_EQ(wire_message_kind(wire), WireMessageKind::kRackSample);
  EXPECT_EQ(parse_rack_sample_message(wire), message);  // exact doubles
}

TEST(EndpointRackMalformedTest, RackPolicyRoundTripsBitForBit) {
  RackPolicyMessage message;
  message.rack = "rack7";
  PolicyMessage a;
  a.sequence = 11;
  a.job_name = "a-wasteful";
  a.host_caps_watts = {180.0 + 1.0 / 7.0, 152.0};
  a.budget_epoch = 3;
  a.fence_epoch = 2;
  PolicyMessage b;
  b.sequence = 12;
  b.job_name = "b-hungry";
  b.host_caps_watts = {206.375};
  b.host_gpu_caps_watts = {100.0 + 2.0 / 3.0};
  b.budget_epoch = 3;
  message.policies = {a, b};
  message.round = 12;
  for (const PolicyMessage& policy : message.policies) {
    for (const double cap : policy.host_caps_watts) {
      message.rack_budget_watts += cap;
    }
    for (const double cap : policy.host_gpu_caps_watts) {
      message.rack_budget_watts += cap;
    }
  }

  const std::string wire = serialize(message, WireFidelity::kExact);
  EXPECT_EQ(wire_message_kind(wire), WireMessageKind::kRackPolicy);
  EXPECT_EQ(parse_rack_policy_message(wire), message);
}

TEST(EndpointRackMalformedTest, DisplayFidelityStaysSelfConsistent) {
  // Caps no decimal form holds exactly: the rack budget written as their
  // sum parses back equal to the sum the receiver recomputes, bit for
  // bit, with no rounding allowance.
  RackPolicyMessage message;
  message.rack = "r0";
  PolicyMessage policy;
  policy.sequence = 1;
  policy.job_name = "a";
  policy.host_caps_watts = {100.0 / 3.0, 200.0 / 7.0, 50.0 / 9.0};
  message.policies = {policy};
  message.round = 1;
  for (const double cap : policy.host_caps_watts) {
    message.rack_budget_watts += cap;
  }
  const RackPolicyMessage parsed =
      parse_rack_policy_message(serialize(message));
  EXPECT_EQ(parsed, message);
  double recomputed = 0.0;
  for (const double cap : parsed.policies[0].host_caps_watts) {
    recomputed += cap;
  }
  EXPECT_EQ(parsed.rack_budget_watts, recomputed);
}

}  // namespace
}  // namespace ps::core
