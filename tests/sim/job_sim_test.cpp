#include "sim/job_sim.hpp"

#include <gtest/gtest.h>

#include "iteration_bits.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::sim {
namespace {

std::vector<hw::NodeModel*> hosts_of(Cluster& cluster, std::size_t count) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < count; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

kernel::WorkloadConfig imbalanced_config() {
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 2.0;
  return config;
}

TEST(JobSimTest, WaitingHostCountRoundsFraction) {
  Cluster cluster(10);
  JobSimulation job("j", hosts_of(cluster, 10), imbalanced_config());
  EXPECT_EQ(job.waiting_host_count(), 5u);
  EXPECT_TRUE(job.is_waiting_host(0));
  EXPECT_TRUE(job.is_waiting_host(4));
  EXPECT_FALSE(job.is_waiting_host(5));
}

TEST(JobSimTest, BalancedJobHasNoWaitingHosts) {
  Cluster cluster(4);
  JobSimulation job("j", hosts_of(cluster, 4), kernel::WorkloadConfig{});
  EXPECT_EQ(job.waiting_host_count(), 0u);
}

TEST(JobSimTest, AlwaysKeepsOneCriticalHost) {
  Cluster cluster(4);
  kernel::WorkloadConfig config;
  config.waiting_fraction = 0.99;
  config.imbalance = 2.0;
  JobSimulation job("j", hosts_of(cluster, 4), config);
  EXPECT_LT(job.waiting_host_count(), 4u);
}

TEST(JobSimTest, HostGigabytesReflectRole) {
  Cluster cluster(4);
  kernel::WorkloadConfig config = imbalanced_config();
  config.gigabytes_per_iteration = 2.0;
  JobSimulation job("j", hosts_of(cluster, 4), config);
  EXPECT_DOUBLE_EQ(job.host_gigabytes(0), 2.0);  // waiting
  EXPECT_DOUBLE_EQ(job.host_gigabytes(3), 4.0);  // critical (2x)
}

TEST(JobSimTest, IterationTimeSetByCriticalPath) {
  Cluster cluster(4);
  JobSimulation job("j", hosts_of(cluster, 4), imbalanced_config());
  const IterationResult result = job.run_iteration();
  EXPECT_FALSE(result.hosts[result.critical_host_index].waiting_host);
  for (const auto& host : result.hosts) {
    EXPECT_LE(host.busy_seconds, result.iteration_seconds + 1e-12);
    EXPECT_NEAR(host.busy_seconds + host.poll_seconds,
                result.iteration_seconds, 1e-12);
  }
}

TEST(JobSimTest, WaitingHostsPollHalfTheIteration) {
  Cluster cluster(4);
  JobSimulation job("j", hosts_of(cluster, 4), imbalanced_config());
  const IterationResult result = job.run_iteration();
  for (std::size_t i = 0; i < 4; ++i) {
    if (result.hosts[i].waiting_host) {
      // Critical path does 2x the work, so waiting hosts poll ~half.
      EXPECT_NEAR(result.hosts[i].poll_seconds / result.iteration_seconds,
                  0.5, 0.05);
    }
  }
}

TEST(JobSimTest, EnergyAggregatesAcrossHosts) {
  Cluster cluster(3);
  JobSimulation job("j", hosts_of(cluster, 3), kernel::WorkloadConfig{});
  const IterationResult result = job.run_iteration();
  double expected = 0.0;
  for (const auto& host : result.hosts) {
    expected += host.energy_joules;
  }
  EXPECT_NEAR(result.total_energy_joules, expected, 1e-9);
  EXPECT_GT(result.average_node_power_watts, 100.0);
}

TEST(JobSimTest, TotalsAccumulateOverIterations) {
  Cluster cluster(2);
  JobSimulation job("j", hosts_of(cluster, 2), kernel::WorkloadConfig{});
  double elapsed = 0.0;
  double energy = 0.0;
  for (int i = 0; i < 5; ++i) {
    const IterationResult result = job.run_iteration();
    elapsed += result.iteration_seconds;
    energy += result.total_energy_joules;
  }
  EXPECT_EQ(job.totals().iterations, 5u);
  EXPECT_NEAR(job.totals().elapsed_seconds, elapsed, 1e-9);
  EXPECT_NEAR(job.totals().energy_joules, energy, 1e-9);
  job.reset_totals();
  EXPECT_EQ(job.totals().iterations, 0u);
}

TEST(JobSimTest, CapsChangeIterationBehavior) {
  Cluster cluster(2);
  kernel::WorkloadConfig config;
  config.intensity = 32.0;  // compute-bound: caps matter
  JobSimulation job("j", hosts_of(cluster, 2), config);
  const double fast = job.run_iteration().iteration_seconds;
  job.set_host_cap(0, 170.0);
  job.set_host_cap(1, 170.0);
  const double slow = job.run_iteration().iteration_seconds;
  EXPECT_GT(slow, fast * 1.05);
}

TEST(JobSimTest, TotalAllocatedPowerSumsCaps) {
  Cluster cluster(3);
  JobSimulation job("j", hosts_of(cluster, 3), kernel::WorkloadConfig{});
  job.set_host_cap(0, 200.0);
  job.set_host_cap(1, 180.0);
  job.set_host_cap(2, 160.0);
  EXPECT_NEAR(job.total_allocated_power(), 540.0, 1.0);
}

TEST(JobSimTest, NoiseChangesIterationsButPreservesScale) {
  Cluster cluster(2);
  NoiseParams noise{0.01};
  JobSimulation job("j", hosts_of(cluster, 2), kernel::WorkloadConfig{},
                    noise, util::Rng(99));
  const double t1 = job.run_iteration().iteration_seconds;
  const double t2 = job.run_iteration().iteration_seconds;
  EXPECT_NE(t1, t2);
  EXPECT_NEAR(t1, t2, t1 * 0.1);
}

TEST(JobSimTest, NoiselessIsDeterministic) {
  Cluster cluster(2);
  JobSimulation job("j", hosts_of(cluster, 2), kernel::WorkloadConfig{});
  const double t1 = job.run_iteration().iteration_seconds;
  const double t2 = job.run_iteration().iteration_seconds;
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(JobSimTest, GflopCountsOnlyUsefulWork) {
  Cluster cluster(4);
  kernel::WorkloadConfig config = imbalanced_config();
  JobSimulation job("j", hosts_of(cluster, 4), config);
  const IterationResult result = job.run_iteration();
  for (const auto& host : result.hosts) {
    EXPECT_GT(host.gflop, 0.0);
  }
  // Critical hosts do 2x the flops of waiting hosts.
  EXPECT_NEAR(result.hosts[3].gflop, 2.0 * result.hosts[0].gflop,
              result.hosts[0].gflop * 0.01);
}


// Pinned-value regressions. The bits were captured from the per-host
// reference loop the iteration pass replaced, on nodes whose solve memo
// was bypassed (every solve cold), so they are the simulator's
// unoptimized answer: the single pass and its memoized solves must
// reproduce it exactly.

TEST(JobSimSoaTest, SoaAndScalarPathsAreBitIdentical) {
  // Cap changes, noise, a straggler, and a failed host.
  static constexpr PinnedIteration kPinned[] = {
    {0x3f94dd331874a765ULL, 0x40423e7df67b1591ULL,
     0x4062000000000000ULL, 0x406bfb4f79222c0cULL, 6, 0xb3a29cc56d0be535ULL},
    {0x3f948883013749faULL, 0x4041f6048f4e2570ULL,
     0x4062000000000000ULL, 0x406bfdc57ffbd9beULL, 4, 0xb346220e2b322a51ULL},
    {0x3f94a920e18f66dbULL, 0x4042113eb06e9bf6ULL,
     0x4062000000000000ULL, 0x406bfbc096e8ca6eULL, 7, 0x18c3c7264ae41a46ULL},
    {0x3f94d2ab5f6ae889ULL, 0x404234673ff91022ULL,
     0x4062000000000000ULL, 0x406bf9f4ef253ef4ULL, 7, 0xb62cc2421b02a6a9ULL},
    {0x3f966130fcf12b97ULL, 0x403d545fb37e10a0ULL,
     0x4062000000000000ULL, 0x4064f80000000000ULL, 4, 0x3a93816179ca9783ULL},
    {0x3f96b2365035cf8aULL, 0x403dbe8e2e1e857dULL,
     0x4062000000000000ULL, 0x4064f80000000000ULL, 4, 0xf83b4cd1960cdc69ULL},
    {0x3f96dc3cd35485acULL, 0x403a0d7e51d79356ULL,
     0x405e000000000000ULL, 0x40623bffffffffffULL, 4, 0x6bd600cf5a9d3cbcULL},
    {0x3f966e1f5e86c6d7ULL, 0x403990003ffa191bULL,
     0x405e000000000000ULL, 0x40623c0000000000ULL, 4, 0xcd87cdf0ac45d2faULL},
    {0x3f9683048e107d21ULL, 0x4039a7d070e74a9aULL,
     0x405e000000000000ULL, 0x40623c0000000000ULL, 4, 0x84c244b0fcdad2a3ULL},
    {0x3f96c8f7c1439965ULL, 0x4039f7885a80ca12ULL,
     0x405e000000000000ULL, 0x40623c0000000001ULL, 4, 0x3744bf700a7efb95ULL},
  };
  static constexpr PinnedTotals kTotals = {0x3fcb5168451f93deULL, 0x4073344162b38257ULL, 0x4095000000000000ULL};
  Cluster cluster(8);
  kernel::WorkloadConfig config = imbalanced_config();
  config.gigabytes_per_iteration = 1.5;
  JobSimulation job("j", hosts_of(cluster, 8), config, NoiseParams{0.01},
                    util::Rng(7));
  PinnedScript script(job, kPinned);
  script.run(4);
  for (std::size_t h = 0; h < 8; ++h) {
    job.set_host_cap(h, 150.0 + 5.0 * static_cast<double>(h));
  }
  script.run();
  job.set_host_slowdown(2, 1.5);
  script.run();
  job.set_host_failed(5, true);
  script.run(4);
  script.finish(kTotals);
}

TEST(JobSimSoaTest, SoaMatchesScalarWithSolveCacheDisabled) {
  // Steady limits: after the first iteration every solve is a memo hit,
  // and each must still equal the cold-solve bits.
  static constexpr PinnedIteration kPinned[] = {
    {0x3f9b88aa051a7245ULL, 0x40420fec4ed6317fULL,
     0x4062000000000000ULL, 0x406bfd44b6493fcbULL, 5, 0xdc704341940463edULL},
    {0x3f9b86354e82991aULL, 0x40420e64efbe422fULL,
     0x4062000000000000ULL, 0x406bfd655d6e9c54ULL, 5, 0xa720fdb0dbf5dd0dULL},
    {0x3f9b8f059a8e0f21ULL, 0x4042141ad2619092ULL,
     0x4062000000000000ULL, 0x406bfd4913948484ULL, 4, 0xa15a01c5e0b9e081ULL},
    {0x3f9b79a51b3569d9ULL, 0x4042062ec60b87bfULL,
     0x4062000000000000ULL, 0x406bfd7153482dd8ULL, 4, 0x942820a9ff7cd1d3ULL},
    {0x3f9b8c5e49202bd9ULL, 0x4042121b50f87297ULL,
     0x4062000000000000ULL, 0x406bfce30df77c9bULL, 3, 0x52ab246b8f232db2ULL},
    {0x3f9b81dc63d2bfa3ULL, 0x40420bb485fc76fdULL,
     0x4062000000000000ULL, 0x406bfda601232e80ULL, 4, 0x7500e87dcbec3b3cULL},
  };
  static constexpr PinnedTotals kTotals = {0x3fc4a4b896ca6dfaULL, 0x406b159aab7d9d65ULL, 0x408b000000000000ULL};
  Cluster cluster(6);
  JobSimulation job("j", hosts_of(cluster, 6), imbalanced_config(),
                    NoiseParams{0.004}, util::Rng(11));
  PinnedScript script(job, kPinned);
  script.run(6);
  script.finish(kTotals);
}

TEST(JobSimTest, InvalidConstructionRejected) {
  Cluster cluster(2);
  EXPECT_THROW(
      JobSimulation("j", {}, kernel::WorkloadConfig{}),
      ps::InvalidArgument);
  EXPECT_THROW(JobSimulation("j", {nullptr}, kernel::WorkloadConfig{}),
               ps::InvalidArgument);
  kernel::WorkloadConfig bad;
  bad.imbalance = 0.0;
  EXPECT_THROW(JobSimulation("j", hosts_of(cluster, 2), bad),
               ps::InvalidArgument);
}

TEST(JobSimTest, JobTotalsDerivedMetrics) {
  JobTotals totals;
  totals.iterations = 10;
  totals.elapsed_seconds = 2.0;
  totals.energy_joules = 800.0;
  totals.gflop = 400.0;
  EXPECT_DOUBLE_EQ(totals.average_power_watts(2), 200.0);
  EXPECT_DOUBLE_EQ(totals.gflops_per_watt(2), 0.5);
  EXPECT_DOUBLE_EQ(totals.energy_delay_product(), 1600.0);
  EXPECT_DOUBLE_EQ(JobTotals{}.average_power_watts(2), 0.0);
}

}  // namespace
}  // namespace ps::sim
