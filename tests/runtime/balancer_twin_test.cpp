// balance_power searches once per run of twin hosts (adjacent hosts with
// the same data per iteration on nodes with the same solver) and copies
// the run's cap to the rest. Its caps must equal, bit for bit, the plain
// search that calls min_cap_for_time(job, i, target) for every host at
// every target, on homogeneous clusters, varied clusters, and clusters
// whose runs are broken by a distinct node or by the waiting/imbalanced
// boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "hw/variation.hpp"
#include "runtime/power_balancer_agent.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace ps::runtime {
namespace {

/// balance_power's search with every host searched at every target.
std::vector<double> per_host_balance(const sim::JobSimulation& job,
                                     double budget,
                                     const BalancerOptions& options = {}) {
  const std::size_t hosts = job.host_count();
  double best_time = 0.0;
  double worst_time = 0.0;
  double floor_power = 0.0;
  for (std::size_t i = 0; i < hosts; ++i) {
    best_time =
        std::max(best_time, host_busy_seconds(job, i, job.host(i).tdp()));
    worst_time = std::max(worst_time,
                          host_busy_seconds(job, i, job.host(i).min_cap()));
    floor_power += job.host(i).min_cap();
  }
  std::vector<double> caps(hosts);
  const auto caps_for_time = [&](double target) {
    double total = 0.0;
    for (std::size_t i = 0; i < hosts; ++i) {
      caps[i] = min_cap_for_time(job, i, target, options);
      total += caps[i];
    }
    return total;
  };
  const auto floors = [&] {
    for (std::size_t i = 0; i < hosts; ++i) {
      caps[i] = job.host(i).min_cap();
    }
    return caps;
  };
  if (budget <= floor_power) {
    return floors();
  }
  const double tolerated = best_time * (1.0 + options.tolerated_slowdown);
  if (caps_for_time(tolerated) <= budget) {
    return caps;
  }
  double lo = tolerated;
  double hi = worst_time * (1.0 + options.performance_epsilon);
  if (caps_for_time(hi) > budget) {
    return floors();
  }
  while (hi - lo > options.time_tolerance * best_time) {
    const double mid = 0.5 * (lo + hi);
    if (caps_for_time(mid) <= budget) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  caps_for_time(hi * (1.0 + options.performance_epsilon));
  return caps;
}

kernel::WorkloadConfig imbalanced_config() {
  kernel::WorkloadConfig config;
  config.intensity = 16.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 3.0;
  return config;
}

/// Budgets from below the floors to above the uncapped demand, per host.
const double kPerHostBudgets[] = {120.0, 160.0, 175.0, 190.0,
                                  205.0, 220.0, 260.0};

void expect_bit_equal_caps(const sim::JobSimulation& job) {
  const double hosts = static_cast<double>(job.host_count());
  for (const double per_host : kPerHostBudgets) {
    SCOPED_TRACE(per_host);
    const std::vector<double> reference =
        per_host_balance(job, per_host * hosts);
    const std::vector<double> caps = balance_power(job, per_host * hosts);
    ASSERT_EQ(caps.size(), reference.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
      EXPECT_EQ(caps[i], reference[i]) << "host " << i;
    }
  }
}

std::vector<hw::NodeModel*> hosts_of(sim::Cluster& cluster) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

TEST(BalancerTwinTest, HomogeneousClusterMatchesPerHostSearch) {
  sim::Cluster cluster(12);
  const sim::JobSimulation job("homogeneous", hosts_of(cluster),
                               imbalanced_config());
  expect_bit_equal_caps(job);
}

TEST(BalancerTwinTest, VariedClusterMatchesPerHostSearch) {
  util::Rng rng(11);
  sim::Cluster cluster(
      hw::VariationModel({{.count = 12, .mean_eta = 1.0, .sigma_eta = 0.08}}),
      rng);
  const sim::JobSimulation job("varied", hosts_of(cluster),
                               imbalanced_config());
  expect_bit_equal_caps(job);
}

TEST(BalancerTwinTest, RunsBrokenByADistinctNodeAndTheBoundary) {
  // Waiting hosts 0-4, imbalanced hosts 5-9. Hosts 2 (waiting) and 6
  // are leakier parts, host 8 has less dynamic power (other NodeParams),
  // and hosts 4 and 5 are identical nodes on either side of the
  // waiting/imbalanced boundary.
  const double etas[] = {1.0, 1.0, 1.12, 1.0, 1.0,
                         1.0, 1.12, 1.0, 1.0, 1.0};
  std::vector<std::unique_ptr<hw::NodeModel>> nodes;
  std::vector<hw::NodeModel*> hosts;
  hw::NodeParams efficient;
  efficient.power.max_dynamic_watts = 50.0;
  for (std::size_t i = 0; i < std::size(etas); ++i) {
    nodes.push_back(std::make_unique<hw::NodeModel>(
        static_cast<hw::NodeId>(i), etas[i],
        i == 8 ? efficient : hw::NodeParams{}));
    hosts.push_back(nodes.back().get());
  }
  const sim::JobSimulation job("broken-runs", hosts, imbalanced_config());
  ASSERT_TRUE(job.is_waiting_host(4));
  ASSERT_FALSE(job.is_waiting_host(5));
  expect_bit_equal_caps(job);

  // The runs must matter: under some budget each distinct imbalanced
  // host, and each side of the boundary, gets a cap that differs from
  // its neighbour's, so a wrongly shared search would show.
  for (const std::size_t host : {5, 6, 8}) {
    bool differs = false;
    for (const double per_host : kPerHostBudgets) {
      const std::vector<double> caps = balance_power(job, per_host * 10.0);
      differs = differs || caps[host] != caps[host - 1];
    }
    EXPECT_TRUE(differs) << "host " << host;
  }
}

}  // namespace
}  // namespace ps::runtime
