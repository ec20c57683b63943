#include "core/control_round.hpp"

#include <algorithm>
#include <vector>

#include "core/degradation.hpp"
#include "core/invariants.hpp"
#include "util/error.hpp"

namespace ps::core {

namespace {

using Caps = std::vector<std::vector<double>>;

/// Σ per-limit reductions from `from` to `to` (same shape): a reshaping
/// pass re-divides at (near-)constant total, so the total delta would
/// hide what the losing limits gave up.
double watts_moved(const rm::PowerAllocation& from,
                   const rm::PowerAllocation& to) {
  double moved = 0.0;
  const auto add = [&moved](const Caps& before, const Caps& after) {
    for (std::size_t j = 0; j < before.size(); ++j) {
      for (std::size_t h = 0; h < before[j].size(); ++h) {
        moved += std::max(0.0, before[j][h] - after[j][h]);
      }
    }
  };
  add(from.job_host_caps, to.job_host_caps);
  add(from.job_host_gpu_caps, to.job_host_gpu_caps);
  return moved;
}

/// floor ≤ cap ≤ TDP (0.5 W slack) for every limit of `caps`.
void check_bounds(const rm::PowerAllocation& caps,
                  std::span<const JobLimits> jobs) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const double cap : caps.job_host_caps[j]) {
      invariants::check_cap_bounds(cap, jobs[j].floor_watts, jobs[j].tdp_watts,
                                   0.5, "control_round.cap");
    }
    for (const double cap : caps.job_gpu_caps(j)) {
      invariants::check_cap_bounds(cap, jobs[j].gpu_floor_watts,
                                   jobs[j].gpu_tdp_watts, 0.5,
                                   "control_round.gpu_cap");
    }
  }
}

}  // namespace

RoundOutcome ControlRound::run() const {
  PS_REQUIRE((context == nullptr ||
              (policy != nullptr && context->jobs.size() == jobs.size())) &&
                 (caps_in_force == nullptr ||
                  caps_in_force->job_host_caps.size() == jobs.size()),
             "a round needs a policy with its telemetry, and every job");
  RoundOutcome outcome;
  rm::PowerAllocation& caps = outcome.caps;
  std::size_t hosts = 0;
  double floor_total = 0.0;
  for (const JobLimits& job : jobs) {
    hosts += job.hosts;
    outcome.limits += job.gpu_domain ? 2 * job.hosts : job.hosts;
    floor_total +=
        (job.floor_watts + (job.gpu_domain ? job.gpu_floor_watts : 0.0)) *
        static_cast<double>(job.hosts);
  }
  const double ceiling =
      budget_watts + 0.5 * static_cast<double>(outcome.limits);
  const bool seed = context == nullptr && caps_in_force == nullptr;

  if (seed) {
    // Launch: every host starts from the uniform share of the budget; a
    // GPU-domain host splits its share CPU:GPU by TDP ratio.
    const double share = budget_watts / static_cast<double>(hosts);
    for (const JobLimits& job : jobs) {
      const double cpu_fraction =
          job.gpu_domain ? job.tdp_watts / (job.tdp_watts + job.gpu_tdp_watts)
                         : 1.0;
      caps.job_host_caps.emplace_back(job.hosts, share * cpu_fraction);
      caps.job_host_gpu_caps.emplace_back(job.gpu_domain ? job.hosts : 0,
                                          share * (1.0 - cpu_fraction));
    }
    outcome.total_watts = caps.total_watts();
  } else {
    rm::PowerAllocation allocated;
    if (context != nullptr) {
      const rm::PowerAllocation raw = policy->allocate(*context);
      allocated = apply_sla_degradation(*context, raw, budget_watts,
                                        "control_round.degrade");
      outcome.shed_watts = watts_moved(raw, allocated);
    }
    const rm::PowerAllocation& candidate =
        context != nullptr ? allocated : *caps_in_force;
    outcome.verdict =
        context != nullptr ? RoundVerdict::kApply : RoundVerdict::kKeep;
    outcome.total_watts = candidate.total_watts();
    outcome.over_budget = budget_binds && outcome.total_watts > ceiling;
    if (outcome.over_budget && caps_in_force != nullptr &&
        caps_in_force->total_watts() <= ceiling) {
      outcome.verdict = RoundVerdict::kKeep;
      outcome.total_watts = caps_in_force->total_watts();
    } else if (outcome.over_budget) {
      // The emergency clamp: scale onto the budget, each domain toward
      // its own floor, lowest SLA class first.
      outcome.verdict = RoundVerdict::kClamp;
      caps = clamp_to_budget(candidate, jobs, budget_watts);
      outcome.total_watts = caps.total_watts();
      outcome.shed_watts += watts_moved(candidate, caps);
    } else if (context != nullptr) {
      caps = std::move(allocated);
    }
    check_bounds(
        outcome.verdict == RoundVerdict::kKeep ? *caps_in_force : caps, jobs);
  }
  if (seed || budget_binds) {
    invariants::check_caps_fit_budget(
        outcome.total_watts, std::max(budget_watts, floor_total),
        outcome.limits, "control_round.budget");
  }
  return outcome;
}

}  // namespace ps::core
