#include "runtime/power_balancer_agent.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ps::runtime {

double host_busy_seconds(const sim::JobSimulation& job, std::size_t host,
                         double node_cap_watts) {
  const auto& workload = job.workload();
  const hw::PhaseResult result = job.host(host).preview_compute(
      job.host_gigabytes(host), workload.intensity, workload.vector_width,
      node_cap_watts);
  return result.seconds;
}

double host_gpu_seconds(const sim::JobSimulation& job, std::size_t host,
                        double gpu_cap_watts) {
  return job.preview_gpu_seconds(host, gpu_cap_watts);
}

double min_gpu_cap_for_time(const sim::JobSimulation& job, std::size_t host,
                            double target_seconds,
                            const BalancerOptions& options) {
  PS_REQUIRE(target_seconds > 0.0, "target time must be positive");
  const double floor_cap = job.host_gpu_min_cap(host);
  const double ceil_cap = job.host_gpu_tdp(host);
  if (host_gpu_seconds(job, host, ceil_cap) > target_seconds) {
    return ceil_cap;  // Even full power cannot meet the target.
  }
  if (host_gpu_seconds(job, host, floor_cap) <= target_seconds) {
    return floor_cap;
  }
  double lo = floor_cap;  // gpu(lo) > target
  double hi = ceil_cap;   // gpu(hi) <= target
  while (hi - lo > options.cap_tolerance_watts) {
    const double mid = 0.5 * (lo + hi);
    if (host_gpu_seconds(job, host, mid) <= target_seconds) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double uncapped_iteration_seconds(const sim::JobSimulation& job) {
  double critical = 0.0;
  for (std::size_t i = 0; i < job.host_count(); ++i) {
    double busy = host_busy_seconds(job, i, job.host(i).tdp());
    if (job.host_has_gpu_phase(i)) {
      busy = std::max(busy,
                      host_gpu_seconds(job, i, job.host_gpu_tdp(i)));
    }
    critical = std::max(critical, busy);
  }
  return critical;
}

namespace {

/// min_cap_for_time with the host's busy times at its TDP and at its
/// floor already known (they are the same for every target).
double min_cap_search(const sim::JobSimulation& job, std::size_t host,
                      double target_seconds, double busy_at_tdp,
                      double busy_at_floor, const BalancerOptions& options) {
  const double floor_cap = job.host(host).min_cap();
  const double ceil_cap = job.host(host).tdp();
  if (busy_at_tdp > target_seconds) {
    return ceil_cap;  // Even full power cannot meet the target.
  }
  if (busy_at_floor <= target_seconds) {
    return floor_cap;
  }
  double lo = floor_cap;   // busy(lo) > target
  double hi = ceil_cap;    // busy(hi) <= target
  while (hi - lo > options.cap_tolerance_watts) {
    const double mid = 0.5 * (lo + hi);
    if (host_busy_seconds(job, host, mid) <= target_seconds) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

double min_cap_for_time(const sim::JobSimulation& job, std::size_t host,
                        double target_seconds,
                        const BalancerOptions& options) {
  PS_REQUIRE(target_seconds > 0.0, "target time must be positive");
  return min_cap_search(
      job, host, target_seconds,
      host_busy_seconds(job, host, job.host(host).tdp()),
      host_busy_seconds(job, host, job.host(host).min_cap()), options);
}

std::vector<double> balance_power(const sim::JobSimulation& job,
                                  double job_budget_watts,
                                  const BalancerOptions& options) {
  PS_REQUIRE(job_budget_watts > 0.0, "job budget must be positive");
  const std::size_t hosts = job.host_count();

  // Hosts are searched once per run of twins: adjacent hosts that move
  // the same data per iteration on nodes with the same solver
  // (NodeModel::same_solver) get bit-identical previews, so the run's
  // first host (its leader) answers for the rest. Each host's busy
  // times at TDP and at its floor, the ends of every min-cap search, are
  // computed once here rather than once per search.
  std::vector<std::size_t> leader(hosts);
  std::vector<double> busy_at_tdp(hosts);
  std::vector<double> busy_at_floor(hosts);
  // Fastest conceivable iteration: every host uncapped (at TDP); slowest
  // useful target: every host at its settable floor.
  double best_time = 0.0;
  double worst_time = 0.0;
  double floor_power = 0.0;
  for (std::size_t i = 0; i < hosts; ++i) {
    const bool twin = i > 0 &&
                      job.host_gigabytes(i) == job.host_gigabytes(i - 1) &&
                      job.host(i).same_solver(job.host(i - 1));
    leader[i] = twin ? leader[i - 1] : i;
    if (twin) {
      busy_at_tdp[i] = busy_at_tdp[i - 1];
      busy_at_floor[i] = busy_at_floor[i - 1];
    } else {
      busy_at_tdp[i] = host_busy_seconds(job, i, job.host(i).tdp());
      busy_at_floor[i] = host_busy_seconds(job, i, job.host(i).min_cap());
    }
    best_time = std::max(best_time, busy_at_tdp[i]);
    worst_time = std::max(worst_time, busy_at_floor[i]);
    floor_power += job.host(i).min_cap();
  }

  std::vector<double> caps(hosts);
  const auto caps_for_time = [&](double target) {
    PS_REQUIRE(target > 0.0, "target time must be positive");
    double total = 0.0;
    for (std::size_t i = 0; i < hosts; ++i) {
      caps[i] = leader[i] == i
                    ? min_cap_search(job, i, target, busy_at_tdp[i],
                                     busy_at_floor[i], options)
                    : caps[leader[i]];
      total += caps[i];
    }
    return total;
  };
  const auto set_floor_caps = [&] {
    for (std::size_t i = 0; i < hosts; ++i) {
      caps[i] = job.host(i).min_cap();
    }
  };

  if (job_budget_watts <= floor_power) {
    // The budget cannot be honored; everything runs at the floor.
    set_floor_caps();
    return caps;
  }

  // The balancer trades `tolerated_slowdown` of iteration time for power:
  // it never targets anything faster than that, even with budget to spare.
  const double tolerated = best_time * (1.0 + options.tolerated_slowdown);
  if (caps_for_time(tolerated) <= job_budget_watts) {
    return caps;
  }

  double lo = tolerated;  // known to be infeasible within the budget
  double hi = worst_time * (1.0 + options.performance_epsilon);
  if (caps_for_time(hi) > job_budget_watts) {
    // Budget is between the floor and the floor-speed demand; run at floor.
    set_floor_caps();
    return caps;
  }
  // Invariant: caps_for_time(hi) fits the budget; lo may not.
  while (hi - lo > options.time_tolerance * best_time) {
    const double mid = 0.5 * (lo + hi);
    if (caps_for_time(mid) <= job_budget_watts) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  caps_for_time(hi * (1.0 + options.performance_epsilon));
  return caps;
}

PowerBalancerAgent::PowerBalancerAgent(double job_budget_watts,
                                       const BalancerOptions& options)
    : budget_watts_(job_budget_watts), options_(options) {
  PS_REQUIRE(job_budget_watts > 0.0, "job power budget must be positive");
}

void PowerBalancerAgent::setup(sim::JobSimulation& job) {
  const double per_host =
      budget_watts_ / static_cast<double>(job.host_count());
  for (std::size_t i = 0; i < job.host_count(); ++i) {
    job.set_host_cap(i, per_host);
  }
  has_observation_ = false;
  balanced_ = false;
  steady_caps_.clear();
}

void PowerBalancerAgent::adjust(sim::JobSimulation& job) {
  if (!has_observation_ || balanced_) {
    return;
  }
  steady_caps_ = balance_power(job, budget_watts_, options_);
  for (std::size_t i = 0; i < job.host_count(); ++i) {
    job.set_host_cap(i, steady_caps_[i]);
  }
  balanced_ = true;
}

void PowerBalancerAgent::observe(sim::JobSimulation& job,
                                 const sim::IterationResult& result) {
  static_cast<void>(job);
  static_cast<void>(result);
  has_observation_ = true;
}

}  // namespace ps::runtime
