// The RM <-> runtime coordination protocol, end to end: two "job
// runtimes" and one "resource manager" exchange binary messages over
// an endpoint (stand-in for a socket or shared memory), repeating the
// sample -> allocate -> apply cycle the paper's conclusion proposes.
//
//   ./coordination_protocol
#include <cstdio>

#include "core/coordination.hpp"
#include "core/endpoint.hpp"
#include "core/policies.hpp"
#include "net/framing.hpp"
#include "sim/cluster.hpp"
#include "sim/sla.hpp"
#include "util/strings.hpp"

int main() {
  using namespace ps;

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
  const double budget = 8.0 * 195.0;

  core::Endpoint endpoint;
  const core::MixedAdaptivePolicy policy;
  // Each job's runtime: runs its iterations, keeps the live demand
  // estimate, and measures itself into samples.
  core::JobStep step_a(job_a, {});
  core::JobStep step_b(job_b, {});

  std::printf("RM <-> runtime protocol demo, budget %s, 3 epochs\n\n",
              util::format_watts(budget).c_str());
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    // --- Runtime side: run an iteration, then measure and post samples.
    core::IterationTotals totals;
    step_a.run_epoch(1, totals);
    step_b.run_epoch(1, totals);
    endpoint.post_sample(step_a.sample(epoch));
    endpoint.post_sample(step_b.sample(epoch));

    // --- RM side: drain samples, allocate, post policies. ---
    std::vector<core::SampleMessage> samples;
    while (auto sample = endpoint.receive_sample()) {
      samples.push_back(std::move(*sample));
    }
    const core::PolicyContext context = core::context_from_samples(
        budget, cluster.node(0).tdp(),
        cluster.node(0).params().dram_watts, samples);
    const rm::PowerAllocation allocation = policy.allocate(context);
    for (const core::PolicyMessage& message :
         core::make_policy_messages(allocation, samples, epoch)) {
      endpoint.post_policy(message);
    }

    // --- Runtime side: apply the received caps. ---
    while (auto message = endpoint.receive_policy()) {
      (message->job_name == "wasteful" ? step_a : step_b).apply(*message);
    }

    std::printf("epoch %llu: wasteful %s  (waiting host cap %s), hungry "
                "%s\n",
                static_cast<unsigned long long>(epoch),
                util::format_watts(job_a.total_allocated_power()).c_str(),
                util::format_watts(job_a.host_cap(0)).c_str(),
                util::format_watts(job_b.total_allocated_power()).c_str());
  }

  // One sample as it crosses a socket: the framed binary payload, and
  // the fields a receiver decodes from it.
  const std::string frame =
      net::encode_frame(core::serialize(step_a.sample(4)));
  net::FrameDecoder decoder;
  decoder.feed(frame);
  const core::SampleMessage decoded =
      core::parse_sample_message(decoder.next().value());
  std::printf("\nOne sample message on the wire: %zu bytes framed\n",
              frame.size());
  std::printf("  sequence %llu, job %s, class %s, min cap %s\n",
              static_cast<unsigned long long>(decoded.sequence),
              decoded.job_name.c_str(),
              std::string(sim::to_string(decoded.sla_class)).c_str(),
              util::format_watts(decoded.min_settable_cap_watts).c_str());
  for (std::size_t h = 0; h < decoded.host_observed_watts.size(); ++h) {
    std::printf("  host %zu: observed %s, needed %s\n", h,
                util::format_watts(decoded.host_observed_watts[h]).c_str(),
                util::format_watts(decoded.host_needed_watts[h]).c_str());
  }
  std::printf("\nEverything the MixedAdaptive policy needs crosses the "
              "endpoint in two small\nmessages per job per epoch — the "
              "protocol the paper's conclusion calls for.\n");
  return 0;
}
