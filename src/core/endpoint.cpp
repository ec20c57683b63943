#include "core/endpoint.hpp"

#include <algorithm>
#include <cmath>

#include "core/wire.hpp"
#include "rm/power_manager.hpp"
#include "util/error.hpp"

namespace ps::core {

namespace {

/// Smallest encodings of an embedded message (tag excluded), the bound a
/// rack frame's job count is checked against: a one-host single-domain
/// sample with a one-byte name is sequence 1 + name 2 + min_cap 8 +
/// observed 9 + needed 9 + GPU range 16 + two empty GPU vectors 2 +
/// class 1; a policy is sequence 1 + name 2 + caps 9 + gpu_caps 1 +
/// epoch 1 + fence 1.
constexpr std::size_t kMinSampleBytes = 48;
constexpr std::size_t kMinPolicyBytes = 15;

void write_sample(wire::Writer& out, const SampleMessage& message) {
  out.varint(message.sequence);
  out.string(message.job_name);
  out.f64(message.min_settable_cap_watts);
  out.f64s(message.host_observed_watts);
  out.f64s(message.host_needed_watts);
  out.f64(message.gpu_min_cap_watts);
  out.f64(message.gpu_tdp_watts);
  out.f64s(message.host_gpu_observed_watts);
  out.f64s(message.host_gpu_needed_watts);
  out.byte(static_cast<std::uint8_t>(message.sla_class));
}

SampleMessage read_sample(wire::Reader& in) {
  SampleMessage message;
  message.sequence = in.varint();
  message.job_name = in.name();
  message.min_settable_cap_watts = in.watts();
  message.host_observed_watts = in.watts_vector();
  message.host_needed_watts = in.watts_vector();
  const std::size_t hosts = message.host_observed_watts.size();
  PS_REQUIRE(hosts > 0, "sample message has no hosts");
  PS_REQUIRE(message.host_needed_watts.size() == hosts,
             "sample vectors disagree on host count");
  message.gpu_min_cap_watts = in.watts();
  message.gpu_tdp_watts = in.watts();
  message.host_gpu_observed_watts = in.watts_vector();
  message.host_gpu_needed_watts = in.watts_vector();
  if (message.host_gpu_observed_watts.empty() &&
      message.host_gpu_needed_watts.empty()) {
    PS_REQUIRE(message.gpu_min_cap_watts == 0.0 &&
                   message.gpu_tdp_watts == 0.0,
               "a single-domain sample carries no GPU range");
  } else {
    PS_REQUIRE(message.host_gpu_observed_watts.size() == hosts &&
                   message.host_gpu_needed_watts.size() == hosts,
               "GPU sample vectors disagree on host count");
    PS_REQUIRE(message.gpu_min_cap_watts > 0.0 &&
                   message.gpu_min_cap_watts <= message.gpu_tdp_watts,
               "GPU cap range must satisfy 0 < min <= TDP");
  }
  const std::uint8_t sla_class = in.byte();
  PS_REQUIRE(sla_class < sim::kSlaClassCount, "unknown SLA class");
  message.sla_class = static_cast<sim::SlaClass>(sla_class);
  return message;
}

void write_policy(wire::Writer& out, const PolicyMessage& message) {
  out.varint(message.sequence);
  out.string(message.job_name);
  out.f64s(message.host_caps_watts);
  out.f64s(message.host_gpu_caps_watts);
  out.varint(message.budget_epoch);
  out.varint(message.fence_epoch);
}

PolicyMessage read_policy(wire::Reader& in) {
  PolicyMessage message;
  message.sequence = in.varint();
  message.job_name = in.name();
  message.host_caps_watts = in.watts_vector();
  PS_REQUIRE(!message.host_caps_watts.empty(),
             "policy message has no hosts");
  message.host_gpu_caps_watts = in.watts_vector();
  PS_REQUIRE(message.host_gpu_caps_watts.empty() ||
                 message.host_gpu_caps_watts.size() ==
                     message.host_caps_watts.size(),
             "GPU caps disagree on host count");
  message.budget_epoch = in.varint();
  message.fence_epoch = in.varint();
  return message;
}

std::string read_rack_name(wire::Reader& in) {
  std::string rack = in.name();
  PS_REQUIRE(rack.find(' ') == std::string::npos,
             "rack name must be a single token");
  return rack;
}

}  // namespace

std::string serialize(const SampleMessage& message, WireFidelity) {
  wire::Writer out(wire::Tag::kSample);
  write_sample(out, message);
  return std::move(out).take();
}

std::string serialize(const PolicyMessage& message, WireFidelity) {
  wire::Writer out(wire::Tag::kPolicy);
  write_policy(out, message);
  return std::move(out).take();
}

std::string serialize(const BudgetMessage& message, WireFidelity) {
  wire::Writer out(wire::Tag::kBudget);
  out.varint(message.epoch);
  out.f64(message.budget_watts);
  out.byte(message.emergency ? 1 : 0);
  return std::move(out).take();
}

std::string serialize(const RackSampleMessage& message, WireFidelity) {
  wire::Writer out(wire::Tag::kRackSample);
  out.string(message.rack);
  out.varint(message.round);
  out.varint(message.samples.size());
  for (const SampleMessage& sample : message.samples) {
    write_sample(out, sample);
  }
  return std::move(out).take();
}

std::string serialize(const RackPolicyMessage& message, WireFidelity) {
  wire::Writer out(wire::Tag::kRackPolicy);
  out.string(message.rack);
  out.varint(message.round);
  out.f64(message.rack_budget_watts);
  out.varint(message.policies.size());
  for (const PolicyMessage& policy : message.policies) {
    write_policy(out, policy);
  }
  return std::move(out).take();
}

SampleMessage parse_sample_message(std::string_view payload) {
  wire::Reader in(payload, wire::Tag::kSample);
  SampleMessage message = read_sample(in);
  in.finish();
  return message;
}

PolicyMessage parse_policy_message(std::string_view payload) {
  wire::Reader in(payload, wire::Tag::kPolicy);
  PolicyMessage message = read_policy(in);
  in.finish();
  return message;
}

BudgetMessage parse_budget_message(std::string_view payload) {
  wire::Reader in(payload, wire::Tag::kBudget);
  BudgetMessage message;
  message.epoch = in.varint();
  PS_REQUIRE(message.epoch != 0, "budget epoch must be non-zero");
  message.budget_watts = in.watts();
  PS_REQUIRE(message.budget_watts > 0.0, "budget must be positive");
  message.emergency = in.flag();
  in.finish();
  return message;
}

RackSampleMessage parse_rack_sample_message(std::string_view payload) {
  wire::Reader in(payload, wire::Tag::kRackSample);
  RackSampleMessage message;
  message.rack = read_rack_name(in);
  message.round = in.varint();
  const std::uint64_t jobs = in.count(kMinSampleBytes);
  PS_REQUIRE(jobs > 0, "rack sample message has no jobs");
  message.samples.reserve(jobs);
  std::uint64_t max_sequence = 0;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    SampleMessage sample = read_sample(in);
    PS_REQUIRE(message.samples.empty() ||
                   message.samples.back().job_name < sample.job_name,
               "rack samples must be unique and name-ordered");
    max_sequence = std::max(max_sequence, sample.sequence);
    message.samples.push_back(std::move(sample));
  }
  in.finish();
  PS_REQUIRE(message.round == max_sequence,
             "rack round must equal the max embedded sequence");
  return message;
}

RackPolicyMessage parse_rack_policy_message(std::string_view payload) {
  wire::Reader in(payload, wire::Tag::kRackPolicy);
  RackPolicyMessage message;
  message.rack = read_rack_name(in);
  message.round = in.varint();
  message.rack_budget_watts = in.watts();
  PS_REQUIRE(message.rack_budget_watts > 0.0,
             "rack budget must be positive");
  const std::uint64_t jobs = in.count(kMinPolicyBytes);
  PS_REQUIRE(jobs > 0, "rack policy message has no jobs");
  message.policies.reserve(jobs);
  std::uint64_t max_sequence = 0;
  double caps_sum = 0.0;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    PolicyMessage policy = read_policy(in);
    PS_REQUIRE(message.policies.empty() ||
                   message.policies.back().job_name < policy.job_name,
               "rack policies must be unique and name-ordered");
    max_sequence = std::max(max_sequence, policy.sequence);
    for (const double cap : policy.host_caps_watts) {
      caps_sum += cap;
    }
    for (const double cap : policy.host_gpu_caps_watts) {
      caps_sum += cap;
    }
    message.policies.push_back(std::move(policy));
  }
  in.finish();
  PS_REQUIRE(message.round == max_sequence,
             "rack round must equal the max embedded sequence");
  // The rack budget is the sum of the embedded caps; the relative term
  // absorbs a writer that summed them in another order.
  PS_REQUIRE(std::abs(caps_sum - message.rack_budget_watts) <=
                 1e-9 * caps_sum,
             "rack budget disagrees with the embedded caps");
  return message;
}

WireMessageKind wire_message_kind(std::string_view payload) {
  const std::optional<wire::Tag> tag = wire::peek_tag(payload);
  if (!tag) {
    return WireMessageKind::kUnknown;
  }
  switch (*tag) {
    case wire::Tag::kSample:
      return WireMessageKind::kSample;
    case wire::Tag::kPolicy:
      return WireMessageKind::kPolicy;
    case wire::Tag::kBudget:
      return WireMessageKind::kBudget;
    case wire::Tag::kRackSample:
      return WireMessageKind::kRackSample;
    case wire::Tag::kRackPolicy:
      return WireMessageKind::kRackPolicy;
    default:
      return WireMessageKind::kUnknown;
  }
}

bool SampleLatch::offer(SampleMessage message) {
  if (latest_ && message.sequence <= latest_->sequence) {
    return false;  // stale, out-of-order, or duplicate: no state change
  }
  latest_ = std::move(message);
  fresh_ = true;
  return true;
}

const SampleMessage& SampleLatch::consume() {
  PS_CHECK_STATE(latest_.has_value(), "no sample to consume");
  fresh_ = false;
  return *latest_;
}

void Endpoint::post_sample(const SampleMessage& message) {
  samples_.push_back(serialize(message));
}

std::optional<SampleMessage> Endpoint::receive_sample() {
  if (samples_.empty()) {
    return std::nullopt;
  }
  const std::string wire = std::move(samples_.front());
  samples_.pop_front();
  return parse_sample_message(wire);
}

void Endpoint::post_policy(const PolicyMessage& message) {
  policies_.push_back(serialize(message));
}

std::optional<PolicyMessage> Endpoint::receive_policy() {
  if (policies_.empty()) {
    return std::nullopt;
  }
  const std::string wire = std::move(policies_.front());
  policies_.pop_front();
  return parse_policy_message(wire);
}

PolicyContext context_from_samples(
    double system_budget_watts, double node_tdp_watts,
    double uncappable_watts, std::span<const SampleMessage* const> samples) {
  PolicyContext context;
  context.system_budget_watts = system_budget_watts;
  context.node_tdp_watts = node_tdp_watts;
  context.uncappable_watts = uncappable_watts;
  context.jobs.reserve(samples.size());
  for (const SampleMessage* const sample_ptr : samples) {
    const SampleMessage& sample = *sample_ptr;
    runtime::JobCharacterization& job = context.jobs.emplace_back();
    job.host_count = sample.host_observed_watts.size();
    job.min_settable_cap_watts = sample.min_settable_cap_watts;
    job.monitor.workload_name = sample.job_name;
    job.monitor.host_average_power_watts = sample.host_observed_watts;
    job.balancer.host_needed_power_watts = sample.host_needed_watts;
    double monitor_max = sample.host_observed_watts.front();
    double monitor_min = monitor_max;
    for (double w : sample.host_observed_watts) {
      monitor_max = std::max(monitor_max, w);
      monitor_min = std::min(monitor_min, w);
    }
    job.monitor.max_host_power_watts = monitor_max;
    job.monitor.min_host_power_watts = monitor_min;
    double needed_max = sample.host_needed_watts.front();
    double needed_min = needed_max;
    for (double w : sample.host_needed_watts) {
      needed_max = std::max(needed_max, w);
      needed_min = std::min(needed_min, w);
    }
    job.balancer.max_host_needed_watts = needed_max;
    job.balancer.min_host_needed_watts = needed_min;
    job.sla_class = sample.sla_class;
    if (sample.has_gpu_domain()) {
      job.host_gpu_observed_watts = sample.host_gpu_observed_watts;
      job.host_gpu_needed_watts = sample.host_gpu_needed_watts;
      job.gpu_min_cap_watts = sample.gpu_min_cap_watts;
      job.gpu_tdp_watts = sample.gpu_tdp_watts;
    }
  }
  return context;
}

PolicyContext context_from_samples(
    double system_budget_watts, double node_tdp_watts,
    double uncappable_watts, const std::vector<SampleMessage>& samples) {
  std::vector<const SampleMessage*> pointers;
  pointers.reserve(samples.size());
  for (const SampleMessage& sample : samples) {
    pointers.push_back(&sample);
  }
  return context_from_samples(system_budget_watts, node_tdp_watts,
                              uncappable_watts, pointers);
}

std::vector<PolicyMessage> make_policy_messages(
    const rm::PowerAllocation& allocation,
    const std::vector<SampleMessage>& samples, std::uint64_t sequence,
    std::uint64_t budget_epoch) {
  PS_REQUIRE(allocation.job_host_caps.size() == samples.size(),
             "allocation does not match the sample set");
  std::vector<PolicyMessage> messages;
  messages.reserve(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    PolicyMessage message;
    message.sequence = sequence;
    message.job_name = samples[j].job_name;
    message.host_caps_watts = allocation.job_host_caps[j];
    message.host_gpu_caps_watts = allocation.job_gpu_caps(j);
    message.budget_epoch = budget_epoch;
    messages.push_back(std::move(message));
  }
  return messages;
}

void apply_policy_message(sim::JobSimulation& job,
                          const PolicyMessage& message) {
  PS_REQUIRE(message.job_name == job.name(),
             "policy message addressed to a different job");
  rm::SystemPowerManager::program_job(job, message.host_caps_watts,
                                      message.host_gpu_caps_watts);
}

}  // namespace ps::core
