#include "net/agent.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ps::net {

CoordinatedAgent::CoordinatedAgent(sim::JobSimulation& job,
                                   RuntimeClient& client,
                                   const AgentOptions& options)
    : step_(job, options.balancer), client_(client), options_(options) {
  PS_REQUIRE(options.epoch_iterations > 0,
             "epochs need at least one iteration");
}

void CoordinatedAgent::exchange(AgentResult& result) {
  const auto reply = client_.exchange(step_.sample(sequence_));
  if (reply) {
    step_.apply(*reply);
    ++result.policies_applied;
  } else {
    // Daemon unreachable (or never heard from): hold the current caps
    // until the client's backoff reconnects.
    ++result.fallback_epochs;
  }
}

AgentResult CoordinatedAgent::run(std::size_t total_iterations) {
  PS_REQUIRE(total_iterations > 0, "need at least one iteration");
  AgentResult result;

  if (sequence_ == 0) {
    // Launch handshake: a sequence-0 sample asks for the uniform share,
    // the caps CoordinationLoop programs before its first iteration.
    exchange(result);
  }

  std::size_t done = 0;
  while (done < total_iterations) {
    const std::size_t this_epoch =
        std::min(options_.epoch_iterations, total_iterations - done);
    step_.run_epoch(this_epoch, result);
    done += this_epoch;
    result.iterations += this_epoch;
    ++result.epochs;

    ++sequence_;
    exchange(result);
  }
  return result;
}

}  // namespace ps::net
