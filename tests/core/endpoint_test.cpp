#include "core/endpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/coordination.hpp"
#include "core/policies.hpp"
#include "sim/cluster.hpp"
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

TEST(EndpointTest, SampleMessageRoundTrips) {
  const SampleMessage original = sample_message();
  const SampleMessage parsed = parse_sample_message(serialize(original));
  EXPECT_EQ(parsed, original);
}

TEST(EndpointTest, PolicyMessageRoundTrips) {
  PolicyMessage original;
  original.sequence = 9;
  original.job_name = "lulesh-512";
  original.host_caps_watts = {180.5, 219.0, 152.0};
  const PolicyMessage parsed = parse_policy_message(serialize(original));
  EXPECT_EQ(parsed, original);
}

TEST(EndpointTest, WireFormatIsVersionedAndReadable) {
  // The one sample grammar, field by field: the tag names the message,
  // and every field is present in a fixed order.
  EXPECT_EQ(test::hex(serialize(sample_message())),
            "01"                                  // tag: sample
            "07"                                  // sequence 7
            "0a" "6c756c6573682d353132"           // job "lulesh-512"
            "0000000000006340"                    // min_cap 152
            "02" "0000000000c46a40"               // observed 214.125
            "0000000000806b40"                    //          220
            "02" "0000000000006340"               // needed 152
            "0000000000786840"                    //        195.75
            "0000000000000000"                    // gpu_min_cap 0
            "0000000000000000"                    // gpu_tdp 0
            "00"                                  // gpu_observed: none
            "00"                                  // gpu_needed: none
            "01");                                // sla_class standard
  EXPECT_EQ(wire_message_kind(serialize(sample_message())),
            WireMessageKind::kSample);
}

TEST(EndpointTest, QueuesDeliverInOrder) {
  Endpoint endpoint;
  EXPECT_FALSE(endpoint.receive_sample().has_value());
  SampleMessage first = sample_message();
  SampleMessage second = sample_message();
  second.sequence = 8;
  endpoint.post_sample(first);
  endpoint.post_sample(second);
  EXPECT_EQ(endpoint.pending_samples(), 2u);
  EXPECT_EQ(endpoint.receive_sample()->sequence, 7u);
  EXPECT_EQ(endpoint.receive_sample()->sequence, 8u);
  EXPECT_FALSE(endpoint.receive_sample().has_value());
}

TEST(EndpointTest, MalformedMessagesRejected) {
  const std::string sample = serialize(sample_message());
  EXPECT_THROW(static_cast<void>(parse_sample_message("")),
               ps::InvalidArgument);
  // The text form of earlier builds is not a tag.
  EXPECT_THROW(static_cast<void>(parse_sample_message(
                   "powerstack-sample v1\nsequence 1\njob x\n")),
               ps::InvalidArgument);
  // A policy parser refuses a sample, and a truncated sample is refused.
  EXPECT_THROW(static_cast<void>(parse_policy_message(sample)),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_sample_message(
                   sample.substr(0, sample.size() - 1))),
               ps::InvalidArgument);
  // Host-count mismatch between observed and needed.
  SampleMessage mismatched = sample_message();
  mismatched.host_needed_watts.pop_back();
  EXPECT_THROW(static_cast<void>(parse_sample_message(serialize(mismatched))),
               ps::InvalidArgument);
}

TEST(EndpointTest, ProtocolCarriesTheFullCoordinationExchange) {
  // Runtime side: two jobs measure themselves into samples.
  sim::Cluster cluster(8);
  kernel::WorkloadConfig wasteful;
  wasteful.intensity = 8.0;
  wasteful.waiting_fraction = 0.5;
  wasteful.imbalance = 3.0;
  kernel::WorkloadConfig hungry;
  hungry.intensity = 32.0;
  std::vector<hw::NodeModel*> a;
  std::vector<hw::NodeModel*> b;
  for (std::size_t i = 0; i < 4; ++i) {
    a.push_back(&cluster.node(i));
    b.push_back(&cluster.node(i + 4));
  }
  sim::JobSimulation job_a("wasteful", a, wasteful);
  sim::JobSimulation job_b("hungry", b, hungry);

  JobStep step_a(job_a, {});
  JobStep step_b(job_b, {});
  IterationTotals totals;
  step_a.run_epoch(1, totals);
  step_b.run_epoch(1, totals);
  Endpoint endpoint;
  endpoint.post_sample(step_a.sample(1));
  endpoint.post_sample(step_b.sample(1));

  // RM side: receives samples off the wire, allocates, replies.
  std::vector<SampleMessage> samples;
  while (auto sample = endpoint.receive_sample()) {
    samples.push_back(std::move(*sample));
  }
  ASSERT_EQ(samples.size(), 2u);
  const double budget = 8.0 * 195.0;
  const PolicyContext context = context_from_samples(
      budget, cluster.node(0).tdp(),
      cluster.node(0).params().dram_watts, samples);
  const rm::PowerAllocation allocation =
      MixedAdaptivePolicy{}.allocate(context);
  for (const PolicyMessage& message :
       make_policy_messages(allocation, samples, 2)) {
    endpoint.post_policy(message);
  }

  // Runtime side: applies the received policies.
  std::size_t applied = 0;
  while (auto policy = endpoint.receive_policy()) {
    sim::JobSimulation& job =
        policy->job_name == "wasteful" ? job_a : job_b;
    apply_policy_message(job, *policy);
    ++applied;
  }
  EXPECT_EQ(applied, 2u);

  // The whole exchange went through the serialized wire, and the caps
  // landed: waiting hosts near the floor, hungry job funded above share.
  EXPECT_LT(job_a.host_cap(0), 160.0);
  EXPECT_GT(job_b.host_cap(0), 196.0);
  const double total =
      job_a.total_allocated_power() + job_b.total_allocated_power();
  EXPECT_LE(total, budget + 8.0 * 0.5);
}

/// Every field context_from_samples fills, compared exactly.
void expect_same_context(const PolicyContext& actual,
                         const PolicyContext& expected) {
  EXPECT_EQ(actual.system_budget_watts, expected.system_budget_watts);
  EXPECT_EQ(actual.node_tdp_watts, expected.node_tdp_watts);
  EXPECT_EQ(actual.uncappable_watts, expected.uncappable_watts);
  ASSERT_EQ(actual.jobs.size(), expected.jobs.size());
  for (std::size_t j = 0; j < actual.jobs.size(); ++j) {
    const runtime::JobCharacterization& a = actual.jobs[j];
    const runtime::JobCharacterization& e = expected.jobs[j];
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(a.host_count, e.host_count);
    EXPECT_EQ(a.min_settable_cap_watts, e.min_settable_cap_watts);
    EXPECT_EQ(a.node_tdp_watts, e.node_tdp_watts);
    EXPECT_EQ(a.monitor.workload_name, e.monitor.workload_name);
    EXPECT_EQ(a.monitor.host_average_power_watts,
              e.monitor.host_average_power_watts);
    EXPECT_EQ(a.monitor.max_host_power_watts, e.monitor.max_host_power_watts);
    EXPECT_EQ(a.monitor.min_host_power_watts, e.monitor.min_host_power_watts);
    EXPECT_EQ(a.balancer.host_needed_power_watts,
              e.balancer.host_needed_power_watts);
    EXPECT_EQ(a.balancer.max_host_needed_watts,
              e.balancer.max_host_needed_watts);
    EXPECT_EQ(a.balancer.min_host_needed_watts,
              e.balancer.min_host_needed_watts);
    EXPECT_EQ(a.host_gpu_needed_watts, e.host_gpu_needed_watts);
    EXPECT_EQ(a.host_gpu_observed_watts, e.host_gpu_observed_watts);
    EXPECT_EQ(a.gpu_min_cap_watts, e.gpu_min_cap_watts);
    EXPECT_EQ(a.gpu_tdp_watts, e.gpu_tdp_watts);
    EXPECT_EQ(a.sla_class, e.sla_class);
  }
}

/// The span form over pointers into `samples` equals the vector form,
/// and follows the pointers' order.
void expect_span_matches_vector(const std::vector<SampleMessage>& samples) {
  const PolicyContext from_vector =
      context_from_samples(1234.5, 256.0, 16.0, samples);
  std::vector<const SampleMessage*> pointers;
  for (const SampleMessage& sample : samples) {
    pointers.push_back(&sample);
  }
  expect_same_context(context_from_samples(1234.5, 256.0, 16.0, pointers),
                      from_vector);

  const std::vector<SampleMessage> reversed(samples.rbegin(), samples.rend());
  const std::vector<const SampleMessage*> reversed_pointers(pointers.rbegin(),
                                                            pointers.rend());
  expect_same_context(
      context_from_samples(1234.5, 256.0, 16.0, reversed_pointers),
      context_from_samples(1234.5, 256.0, 16.0, reversed));
}

TEST(EndpointTest, ContextFromSamplePointersEqualsVectorFormOnCpuJobs) {
  SampleMessage hungry = sample_message();
  SampleMessage idle = sample_message();
  idle.job_name = "idle";
  idle.host_observed_watts = {90.0, 101.5, 88.25};
  idle.host_needed_watts = {80.0, 96.0, 80.0};
  idle.sla_class = sim::SlaClass::kBestEffort;
  const std::vector<SampleMessage> samples = {hungry, idle};
  expect_span_matches_vector(samples);

  const PolicyContext context =
      context_from_samples(1234.5, 256.0, 16.0, samples);
  EXPECT_EQ(context.jobs[1].host_count, 3u);
  EXPECT_EQ(context.jobs[1].monitor.max_host_power_watts, 101.5);
  EXPECT_EQ(context.jobs[1].monitor.min_host_power_watts, 88.25);
  EXPECT_EQ(context.jobs[1].balancer.max_host_needed_watts, 96.0);
  EXPECT_FALSE(context.has_gpu_domain());
}

TEST(EndpointTest, ContextFromSamplePointersEqualsVectorFormOnGpuJobs) {
  SampleMessage cpu = sample_message();
  SampleMessage gpu = sample_message();
  gpu.job_name = "gpu-train";
  gpu.host_gpu_observed_watts = {610.0, 575.5};
  gpu.host_gpu_needed_watts = {540.0, 512.25};
  gpu.gpu_min_cap_watts = 400.0;
  gpu.gpu_tdp_watts = 1200.0;
  gpu.sla_class = sim::SlaClass::kLatencyCritical;
  const std::vector<SampleMessage> samples = {cpu, gpu};
  expect_span_matches_vector(samples);

  const PolicyContext context =
      context_from_samples(1234.5, 256.0, 16.0, samples);
  EXPECT_TRUE(context.has_gpu_domain());
  EXPECT_EQ(context.jobs[1].host_gpu_needed_watts, gpu.host_gpu_needed_watts);
  EXPECT_EQ(context.jobs[1].gpu_tdp_watts, 1200.0);
  EXPECT_TRUE(context.jobs[0].host_gpu_needed_watts.empty());
}

/// Rack frame `f` of a series whose frames differ in every dimension a
/// reused parse must overwrite: job count, host count, GPU vectors, name
/// length and SLA class.
RackSampleMessage rack_frame(std::size_t f) {
  RackSampleMessage rack;
  rack.rack = f % 2 == 0 ? "r1" : "rack-with-a-long-name";
  const std::size_t jobs = std::vector<std::size_t>{3, 1, 5, 2, 4}[f % 5];
  for (std::size_t j = 0; j < jobs; ++j) {
    SampleMessage& sample = rack.samples.emplace_back();
    sample.sequence = 10 * f + j;
    sample.job_name = std::string(1 + (f + j) % 4, 'a') + std::to_string(j);
    sample.min_settable_cap_watts = 140.0 + static_cast<double>(f);
    const std::size_t hosts = 1 + (f + 2 * j) % 3;
    for (std::size_t h = 0; h < hosts; ++h) {
      const double w = 150.0 + static_cast<double>(f * 7 + j * 3 + h);
      sample.host_observed_watts.push_back(w);
      sample.host_needed_watts.push_back(w - 5.0);
      if ((f + j) % 3 == 1) {
        sample.host_gpu_observed_watts.push_back(w + 100.0);
        sample.host_gpu_needed_watts.push_back(w + 90.0);
      }
    }
    if (sample.has_gpu_domain()) {
      sample.gpu_min_cap_watts = 100.0;
      sample.gpu_tdp_watts = 300.0 + static_cast<double>(f);
    }
    sample.sla_class = static_cast<sim::SlaClass>((f + j) % sim::kSlaClassCount);
    rack.round = sample.sequence;
  }
  // Names must be ordered: sort by name, keeping each sample whole.
  std::sort(rack.samples.begin(), rack.samples.end(),
            [](const SampleMessage& a, const SampleMessage& b) {
              return a.job_name < b.job_name;
            });
  return rack;
}

TEST(EndpointTest, RackSampleParseIntoAReusedScratchEqualsTheByValueParse) {
  RackSampleMessage scratch;
  for (std::size_t f = 0; f < 12; ++f) {
    const std::string payload = serialize(rack_frame(f));
    parse_rack_sample_message(payload, scratch);
    ASSERT_EQ(scratch, parse_rack_sample_message(payload)) << "frame " << f;
    ASSERT_EQ(scratch, rack_frame(f)) << "frame " << f;
  }
  // A frame that fails validation leaves the scratch usable: the next
  // frame parses over it exactly.
  std::string bad = serialize(rack_frame(2));
  bad.back() = static_cast<char>(sim::kSlaClassCount);
  EXPECT_THROW(parse_rack_sample_message(bad, scratch), ps::InvalidArgument);
  const std::string payload = serialize(rack_frame(3));
  parse_rack_sample_message(payload, scratch);
  EXPECT_EQ(scratch, rack_frame(3));
}

TEST(EndpointTest, ApplyValidatesAddressing) {
  sim::Cluster cluster(2);
  sim::JobSimulation job("right", {&cluster.node(0), &cluster.node(1)},
                         kernel::WorkloadConfig{});
  PolicyMessage message;
  message.job_name = "wrong";
  message.host_caps_watts = {200.0, 200.0};
  EXPECT_THROW(apply_policy_message(job, message), ps::InvalidArgument);
  message.job_name = "right";
  message.host_caps_watts = {200.0};
  EXPECT_THROW(apply_policy_message(job, message), ps::InvalidArgument);
}

}  // namespace
}  // namespace ps::core
