// Malformed-input and exact-round-trip tests of the flat sample and
// policy grammars. EndpointMalformedTest covers the single-domain
// fields; EndpointV3MalformedTest the GPU-domain fields that ride in the
// same messages. Every case is a well-formed payload with one field
// made wrong, so a rejection is the check under test, not a side effect
// of an unrelated defect.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/endpoint.hpp"
#include "core/wire.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::core {
namespace {

struct MalformedCase {
  std::string name;
  std::string bytes;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

SampleMessage valid_sample() {
  SampleMessage message;
  message.sequence = 1;
  message.job_name = "x";
  message.min_settable_cap_watts = 152.0;
  message.host_observed_watts = {180.0, 190.0};
  message.host_needed_watts = {170.0, 175.0};
  return message;
}

SampleMessage valid_gpu_sample() {
  SampleMessage message = valid_sample();
  message.gpu_min_cap_watts = 100.0;
  message.gpu_tdp_watts = 300.0;
  message.host_gpu_observed_watts = {120.0, 125.0};
  message.host_gpu_needed_watts = {130.0, 135.0};
  return message;
}

PolicyMessage valid_policy() {
  PolicyMessage message;
  message.sequence = 1;
  message.job_name = "x";
  message.host_caps_watts = {180.0, 190.0};
  return message;
}

template <typename Message, typename Mutate>
std::string with(Message message, Mutate mutate) {
  mutate(message);
  return serialize(message);
}

/// A sample written field by field, so counts and varints can lie.
std::string raw_sample(std::uint64_t observed_count) {
  wire::Writer out(wire::Tag::kSample);
  out.varint(1);
  out.string("x");
  out.f64(152.0);
  out.varint(observed_count);
  out.f64(180.0);
  out.f64s({170.0});
  out.f64(0.0);
  out.f64(0.0);
  out.f64s({});
  out.f64s({});
  out.byte(1);
  return std::move(out).take();
}

// Every way an untrusted byte stream has been seen to go wrong: wrong or
// unknown tags, truncation, trailing bytes, non-minimal or overlong
// varints, counts past the payload, negative and non-finite watt fields,
// and vectors that disagree on host count.
std::vector<MalformedCase> malformed_samples() {
  const std::string wire = serialize(valid_sample());
  using M = SampleMessage;
  return {
      {"empty", ""},
      {"text_bytes", "sequence 1\njob x\n"},
      {"wrong_tag", serialize(valid_policy())},
      {"unknown_tag", "\x7f" + wire.substr(1)},
      {"truncated_after_tag", wire.substr(0, 1)},
      {"truncated_last_byte", wire.substr(0, wire.size() - 1)},
      {"trailing_byte", wire + '\0'},
      // sequence 1 is the byte 0x01; 0x81 0x00 is the same value padded.
      {"non_minimal_sequence", wire.substr(0, 1) + "\x81" + '\0' +
                                   wire.substr(2)},
      {"sequence_overflows_64_bits",
       wire.substr(0, 1) + std::string(9, '\xff') + "\x02" + wire.substr(2)},
      {"empty_job_name", with(valid_sample(), [](M& m) { m.job_name = ""; })},
      {"negative_min_cap",
       with(valid_sample(), [](M& m) { m.min_settable_cap_watts = -5.0; })},
      {"negative_watt",
       with(valid_sample(), [](M& m) { m.host_observed_watts[1] = -2.0; })},
      {"nan_watt",
       with(valid_sample(), [](M& m) { m.host_observed_watts[1] = kNaN; })},
      {"inf_watt",
       with(valid_sample(), [](M& m) { m.host_needed_watts[0] = kInf; })},
      {"vector_length_mismatch",
       with(valid_sample(), [](M& m) { m.host_observed_watts.push_back(1); })},
      {"empty_vectors", with(valid_sample(),
                             [](M& m) {
                               m.host_observed_watts.clear();
                               m.host_needed_watts.clear();
                             })},
      {"host_count_past_payload", raw_sample(1'000'000)},
      {"host_count_2_pow_64_minus_1", raw_sample(~std::uint64_t{0})},
      {"unknown_sla_class", wire.substr(0, wire.size() - 1) + "\x03"},
  };
}

std::vector<MalformedCase> malformed_policies() {
  const std::string wire = serialize(valid_policy());
  using M = PolicyMessage;
  return {
      {"empty", ""},
      {"wrong_tag", serialize(valid_sample())},
      {"truncated", wire.substr(0, wire.size() - 1)},
      {"trailing_byte", wire + '\0'},
      {"empty_job_name", with(valid_policy(), [](M& m) { m.job_name = ""; })},
      {"negative_cap",
       with(valid_policy(), [](M& m) { m.host_caps_watts[0] = -180.0; })},
      {"nan_cap",
       with(valid_policy(), [](M& m) { m.host_caps_watts[0] = kNaN; })},
      {"inf_cap",
       with(valid_policy(), [](M& m) { m.host_caps_watts[1] = kInf; })},
      {"empty_caps",
       with(valid_policy(), [](M& m) { m.host_caps_watts.clear(); })},
      // fence 0 is the last byte; 0x80 0x00 is the same value padded.
      {"non_minimal_fence",
       wire.substr(0, wire.size() - 1) + "\x80" + '\0'},
  };
}

std::vector<MalformedCase> malformed_gpu_samples() {
  using M = SampleMessage;
  return {
      {"gpu_range_without_gpu_vectors", with(valid_sample(),
                                             [](M& m) {
                                               m.gpu_min_cap_watts = 100.0;
                                               m.gpu_tdp_watts = 300.0;
                                             })},
      {"gpu_observed_without_gpu_needed",
       with(valid_gpu_sample(),
            [](M& m) { m.host_gpu_needed_watts.clear(); })},
      {"nan_gpu_min_cap",
       with(valid_gpu_sample(), [](M& m) { m.gpu_min_cap_watts = kNaN; })},
      {"negative_gpu_observed",
       with(valid_gpu_sample(),
            [](M& m) { m.host_gpu_observed_watts[0] = -120.0; })},
      {"inf_gpu_needed",
       with(valid_gpu_sample(),
            [](M& m) { m.host_gpu_needed_watts[1] = kInf; })},
      {"gpu_min_above_gpu_tdp",
       with(valid_gpu_sample(), [](M& m) { m.gpu_min_cap_watts = 400.0; })},
      {"zero_gpu_min_cap",
       with(valid_gpu_sample(), [](M& m) { m.gpu_min_cap_watts = 0.0; })},
      {"gpu_vector_shorter_than_cpu",
       with(valid_gpu_sample(),
            [](M& m) { m.host_gpu_observed_watts.pop_back(); })},
      {"gpu_vector_longer_than_cpu",
       with(valid_gpu_sample(), [](M& m) {
         m.host_gpu_observed_watts.push_back(1.0);
         m.host_gpu_needed_watts.push_back(1.0);
       })},
  };
}

std::vector<MalformedCase> malformed_gpu_policies() {
  PolicyMessage gpu = valid_policy();
  gpu.host_gpu_caps_watts = {150.0, 160.0};
  using M = PolicyMessage;
  return {
      {"nan_gpu_cap", with(gpu, [](M& m) { m.host_gpu_caps_watts[0] = kNaN; })},
      {"negative_gpu_cap",
       with(gpu, [](M& m) { m.host_gpu_caps_watts[0] = -150.0; })},
      {"inf_gpu_cap", with(gpu, [](M& m) { m.host_gpu_caps_watts[1] = kInf; })},
      {"gpu_caps_count_mismatch",
       with(gpu, [](M& m) { m.host_gpu_caps_watts.pop_back(); })},
  };
}

void expect_all_rejected(const std::vector<MalformedCase>& cases,
                         auto parse) {
  for (const MalformedCase& test : cases) {
    EXPECT_THROW(static_cast<void>(parse(test.bytes)), ps::Error)
        << "case '" << test.name << "' parsed without error";
  }
}

TEST(EndpointMalformedTest, SampleParserRejectsEveryCase) {
  // The untouched message parses: each case fails for its own defect.
  ASSERT_EQ(parse_sample_message(serialize(valid_sample())), valid_sample());
  expect_all_rejected(malformed_samples(), parse_sample_message);
}

TEST(EndpointMalformedTest, PolicyParserRejectsEveryCase) {
  ASSERT_EQ(parse_policy_message(serialize(valid_policy())), valid_policy());
  expect_all_rejected(malformed_policies(), parse_policy_message);
}

TEST(EndpointMalformedTest, ExactFidelitySurvivesTheWireBitForBit) {
  SampleMessage sample;
  sample.sequence = 41;
  sample.job_name = "precision";
  sample.min_settable_cap_watts = 152.0 + 1.0 / 3.0;
  sample.host_observed_watts = {214.0001220703125, 1e-3, 0.1 + 0.2};
  sample.host_needed_watts = {193.09999999999999, 2.5e2, 7.0 / 9.0};
  const SampleMessage round_tripped =
      parse_sample_message(serialize(sample, WireFidelity::kExact));
  ASSERT_EQ(round_tripped.host_observed_watts.size(), 3u);
  EXPECT_EQ(round_tripped, sample);  // == on doubles: bit-for-bit

  PolicyMessage policy;
  policy.sequence = 42;
  policy.job_name = "precision";
  policy.host_caps_watts = {180.0 + 1.0 / 7.0, 219.12345678901234};
  EXPECT_EQ(parse_policy_message(serialize(policy, WireFidelity::kExact)),
            policy);
}

TEST(EndpointMalformedTest, DisplayFidelityStaysMilliwattRounded) {
  // The values a milliwatt-rounded form used to show: the one grammar
  // carries them unrounded, so 152 + 1/3 comes back as itself.
  SampleMessage sample;
  sample.sequence = 1;
  sample.job_name = "display";
  sample.min_settable_cap_watts = 152.0;
  sample.host_observed_watts = {214.125};
  sample.host_needed_watts = {152.0 + 1.0 / 3.0};
  const SampleMessage parsed = parse_sample_message(serialize(sample));
  EXPECT_EQ(parsed.host_observed_watts[0], 214.125);
  EXPECT_EQ(parsed.host_needed_watts[0], 152.0 + 1.0 / 3.0);
  EXPECT_EQ(parsed, sample);
}

TEST(EndpointV3MalformedTest, SampleParserRejectsEveryCase) {
  ASSERT_EQ(parse_sample_message(serialize(valid_gpu_sample())),
            valid_gpu_sample());
  expect_all_rejected(malformed_gpu_samples(), parse_sample_message);
}

TEST(EndpointV3MalformedTest, PolicyParserRejectsEveryCase) {
  expect_all_rejected(malformed_gpu_policies(), parse_policy_message);
}

TEST(EndpointV3MalformedTest, SingleDomainMessagesStayV1ByteIdentical) {
  // A message with no GPU domain writes its GPU fields as zeros and empty
  // vectors: the exact bytes, pinned.
  SampleMessage sample;
  sample.sequence = 7;
  sample.job_name = "legacy";
  sample.min_settable_cap_watts = 152.0;
  sample.host_observed_watts = {214.0};
  sample.host_needed_watts = {193.1};
  EXPECT_EQ(test::hex(serialize(sample)),
            "01" "07" "06" "6c6567616379"       // sample 7 "legacy"
            "0000000000006340"                  // min_cap 152
            "01" "0000000000c06a40"             // observed 214
            "01" "3333333333236840"             // needed 193.1
            "0000000000000000"                  // gpu_min_cap 0
            "0000000000000000"                  // gpu_tdp 0
            "00" "00"                           // no GPU vectors
            "01");                              // standard

  PolicyMessage policy;
  policy.sequence = 7;
  policy.job_name = "legacy";
  policy.host_caps_watts = {180.0};
  EXPECT_EQ(test::hex(serialize(policy)),
            "02" "07" "06" "6c6567616379"       // policy 7 "legacy"
            "01" "0000000000806640"             // caps 180
            "00"                                // gpu_caps: none
            "00"                                // budget_epoch 0
            "00");                              // fence 0
}

TEST(EndpointV3MalformedTest, V3RoundTripsBitForBit) {
  SampleMessage sample;
  sample.sequence = 41;
  sample.job_name = "hetero";
  sample.min_settable_cap_watts = 152.0 + 1.0 / 3.0;
  sample.host_observed_watts = {214.0001220703125, 0.1 + 0.2};
  sample.host_needed_watts = {193.09999999999999, 7.0 / 9.0};
  sample.gpu_min_cap_watts = 100.0 + 1.0 / 7.0;
  sample.gpu_tdp_watts = 300.0;
  sample.host_gpu_observed_watts = {120.5, 0.0};
  sample.host_gpu_needed_watts = {250.0 / 3.0, 0.0};
  const std::string wire = serialize(sample, WireFidelity::kExact);
  EXPECT_EQ(wire_message_kind(wire), WireMessageKind::kSample);
  EXPECT_EQ(parse_sample_message(wire), sample);  // == on doubles: exact

  PolicyMessage policy;
  policy.sequence = 42;
  policy.job_name = "hetero";
  policy.host_caps_watts = {180.0 + 1.0 / 7.0, 152.0};
  policy.host_gpu_caps_watts = {206.375, 100.0};
  policy.budget_epoch = 3;
  EXPECT_EQ(parse_policy_message(serialize(policy, WireFidelity::kExact)),
            policy);
}

TEST(EndpointV3MalformedTest, CrossVersionParseKeepsDomainsSeparate) {
  // A single-domain message reports no GPU domain after the trip, and a
  // two-domain one keeps both domains and its budget epoch apart.
  const SampleMessage cpu_sample = parse_sample_message(
      serialize(valid_sample()));
  EXPECT_FALSE(cpu_sample.has_gpu_domain());
  EXPECT_TRUE(cpu_sample.host_gpu_observed_watts.empty());
  EXPECT_EQ(cpu_sample.gpu_tdp_watts, 0.0);

  PolicyMessage cpu = valid_policy();
  cpu.budget_epoch = 5;
  const PolicyMessage cpu_policy = parse_policy_message(serialize(cpu));
  EXPECT_FALSE(cpu_policy.has_gpu_domain());
  EXPECT_EQ(cpu_policy.budget_epoch, 5u);

  PolicyMessage gpu = cpu;
  gpu.host_gpu_caps_watts = {150.0, 155.0};
  const PolicyMessage gpu_policy = parse_policy_message(serialize(gpu));
  EXPECT_TRUE(gpu_policy.has_gpu_domain());
  EXPECT_EQ(gpu_policy.budget_epoch, 5u);
  EXPECT_EQ(gpu_policy.host_caps_watts, cpu.host_caps_watts);
  EXPECT_EQ(gpu_policy.host_gpu_caps_watts,
            (std::vector<double>{150.0, 155.0}));
}

}  // namespace
}  // namespace ps::core
