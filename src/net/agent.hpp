#pragma once

#include <cstdint>

#include "core/coordination.hpp"
#include "net/client.hpp"
#include "runtime/power_balancer_agent.hpp"
#include "sim/job_sim.hpp"

namespace ps::net {

struct AgentOptions {
  /// Iterations between samples — must match the daemon mix's epoch
  /// length for lockstep coordination (mirrors CoordinationOptions).
  std::size_t epoch_iterations = 5;
  runtime::BalancerOptions balancer{};
};

/// The iterations' time, energy and work, summed as they ran, plus the
/// exchange counts.
struct AgentResult : core::IterationTotals {
  std::size_t iterations = 0;
  std::size_t epochs = 0;
  std::size_t policies_applied = 0;
  /// Epochs that got no daemon reply and kept the last-known caps.
  std::size_t fallback_epochs = 0;
};

/// The job-side driver of the daemon protocol: a core::JobStep — the
/// per-job body core::CoordinationLoop runs, GPU domain and failed-host
/// floors included — whose samples and replies travel over a
/// RuntimeClient. Before its first epoch it asks for the launch
/// allocation with a sequence-0 sample; then, per epoch, it runs the
/// job's iterations and exchanges a SampleMessage for a PolicyMessage
/// whose caps it programs. Sharing the step is why a daemon-run mix lands
/// on the loop's allocation watt-for-watt.
///
/// When the daemon is unreachable the agent keeps computing on its
/// last-known caps and lets the client's backoff schedule drive
/// reconnection: a dead daemon degrades throughput, never correctness.
class CoordinatedAgent {
 public:
  CoordinatedAgent(sim::JobSimulation& job, RuntimeClient& client,
                   const AgentOptions& options = {});

  /// Runs `total_iterations` more iterations. May be called repeatedly;
  /// sequence numbering and the demand estimate carry over.
  AgentResult run(std::size_t total_iterations);

  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return sequence_;
  }

 private:
  /// Trades the step's sample at the current sequence for a reply and
  /// programs it; without one the job keeps running on its current caps.
  void exchange(AgentResult& result);

  core::JobStep step_;
  RuntimeClient& client_;
  AgentOptions options_;
  std::uint64_t sequence_ = 0;
};

}  // namespace ps::net
