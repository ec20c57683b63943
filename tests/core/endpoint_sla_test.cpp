// Wire discipline of the multi-tenant sla_class field: one byte, always
// present, last in the sample, holding one of the three known classes.
#include <gtest/gtest.h>

#include <string>

#include "core/coordination.hpp"
#include "core/endpoint.hpp"
#include "sim/cluster.hpp"
#include "sim/sla.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::core {
namespace {

SampleMessage sample_message() {
  SampleMessage message;
  message.sequence = 7;
  message.job_name = "lulesh-512";
  message.min_settable_cap_watts = 152.0;
  message.host_observed_watts = {214.125, 220.0};
  message.host_needed_watts = {152.0, 195.75};
  return message;
}

TEST(EndpointSlaTest, NonStandardClassRoundTrips) {
  for (const sim::SlaClass sla_class :
       {sim::SlaClass::kLatencyCritical, sim::SlaClass::kBestEffort}) {
    SampleMessage original = sample_message();
    original.sla_class = sla_class;
    const std::string wire = serialize(original);
    // The class is the sample's last byte.
    EXPECT_EQ(static_cast<unsigned char>(wire.back()),
              static_cast<unsigned char>(sla_class));
    EXPECT_EQ(parse_sample_message(wire), original);
  }
}

TEST(EndpointSlaTest, StandardClassKeepsThePreSlaBytes) {
  // The default class is one explicit byte like any other, pinned here.
  const std::string wire = serialize(sample_message());
  EXPECT_EQ(test::hex(wire),
            "01070a6c756c6573682d353132"            // sample 7 "lulesh-512"
            "0000000000006340"                      // min_cap 152
            "020000000000c46a400000000000806b40"    // observed
            "0200000000000063400000000000786840"    // needed
            "00000000000000000000000000000000"      // GPU range 0, 0
            "0000"                                  // no GPU vectors
            "01");                                  // standard
  EXPECT_EQ(parse_sample_message(wire).sla_class, sim::SlaClass::kStandard);
}

TEST(EndpointSlaTest, ExplicitStandardLineRejected) {
  // The class is never implied: a sample cut just before its class
  // byte is refused rather than read as standard.
  const std::string wire = serialize(sample_message());
  EXPECT_THROW(static_cast<void>(parse_sample_message(
                   wire.substr(0, wire.size() - 1))),
               ps::InvalidArgument);
}

TEST(EndpointSlaTest, UnknownClassNameRejected) {
  std::string wire = serialize(sample_message());
  for (const char unknown : {'\x03', '\x7f', '\xff'}) {
    wire.back() = unknown;
    EXPECT_THROW(static_cast<void>(parse_sample_message(wire)),
                 ps::InvalidArgument);
  }
}

TEST(EndpointSlaTest, MisplacedOrRepeatedTrailerRejected) {
  const std::string wire = serialize(sample_message());
  // A repeated class byte, and a policy-only field after the class.
  EXPECT_THROW(static_cast<void>(parse_sample_message(wire + "\x01")),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_sample_message(wire + "\x03")),
               ps::InvalidArgument);
}

TEST(EndpointSlaTest, MakeSampleAndContextCarryTheClass) {
  sim::Cluster cluster(2);
  sim::JobSimulation job("be-job", {&cluster.node(0), &cluster.node(1)},
                         kernel::WorkloadConfig{});
  job.set_sla_class(sim::SlaClass::kBestEffort);
  const SampleMessage sample = JobStep(job, {}).sample(1);
  EXPECT_EQ(sample.sla_class, sim::SlaClass::kBestEffort);
  const PolicyContext context = context_from_samples(
      1000.0, cluster.node(0).tdp(), cluster.node(0).params().dram_watts,
      {sample});
  ASSERT_EQ(context.jobs.size(), 1u);
  EXPECT_EQ(context.jobs[0].sla_class, sim::SlaClass::kBestEffort);
}

}  // namespace
}  // namespace ps::core
