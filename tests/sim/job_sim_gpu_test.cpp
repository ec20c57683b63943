#include <gtest/gtest.h>

#include "iteration_bits.hpp"
#include "sim/cluster.hpp"
#include "sim/job_sim.hpp"
#include "util/error.hpp"

namespace ps::sim {
namespace {

kernel::WorkloadConfig gpu_workload() {
  kernel::WorkloadConfig config;
  config.intensity = 4.0;
  config.gigabytes_per_iteration = 1.0;
  config.gpu_gigabytes_per_iteration = 60.0;
  config.gpu_intensity = 40.0;
  return config;
}

struct HeteroRig {
  HeteroRig() : cluster(2) {
    cluster.node(0).attach_gpu();
    cluster.node(1).attach_gpu();
    job = std::make_unique<JobSimulation>(
        "hetero", std::vector<hw::NodeModel*>{&cluster.node(0),
                                              &cluster.node(1)},
        gpu_workload());
  }
  Cluster cluster;
  std::unique_ptr<JobSimulation> job;
};

TEST(JobSimGpuTest, GpuDomainIsVisibleOnlyWithDevicesAndOffload) {
  Cluster cluster(2);
  cluster.node(0).attach_gpu();
  // GPU devices but a CPU-only workload: no GPU domain.
  kernel::WorkloadConfig cpu_only;
  JobSimulation cpu_job(
      "cpu", std::vector<hw::NodeModel*>{&cluster.node(0)}, cpu_only);
  EXPECT_FALSE(cpu_job.has_gpu_domain());
  EXPECT_FALSE(cpu_job.host_has_gpu_phase(0));

  // Offloaded workload on a host without devices: still no GPU phase.
  JobSimulation bare_job(
      "bare", std::vector<hw::NodeModel*>{&cluster.node(1)},
      gpu_workload());
  EXPECT_FALSE(bare_job.has_gpu_domain());
  EXPECT_FALSE(bare_job.host_has_gpu_phase(0));

  HeteroRig rig;
  EXPECT_TRUE(rig.job->has_gpu_domain());
  EXPECT_TRUE(rig.job->host_has_gpu_phase(0));
  EXPECT_TRUE(rig.job->host_has_gpu_phase(1));
}

TEST(JobSimGpuTest, GpuCapProgrammingMirrorsTheDevice) {
  HeteroRig rig;
  EXPECT_DOUBLE_EQ(rig.job->host_gpu_cap(0), rig.job->host_gpu_tdp(0));
  rig.job->set_host_gpu_cap(0, 200.0);
  EXPECT_DOUBLE_EQ(rig.job->host_gpu_cap(0), 200.0);
  EXPECT_DOUBLE_EQ(rig.cluster.node(0).gpu(0).power_cap(), 200.0);
  // Out-of-range requests land on the settable bounds.
  rig.job->set_host_gpu_cap(0, 1.0);
  EXPECT_DOUBLE_EQ(rig.job->host_gpu_cap(0), rig.job->host_gpu_min_cap(0));
}

TEST(JobSimGpuTest, GpuCapStretchesAGpuBoundIteration) {
  HeteroRig rig;
  const IterationResult uncapped = rig.job->run_iteration();
  ASSERT_EQ(uncapped.hosts.size(), 2u);
  EXPECT_GT(uncapped.hosts[0].gpu_busy_seconds, 0.0);
  EXPECT_GT(uncapped.hosts[0].gpu_energy_joules, 0.0);
  EXPECT_GT(uncapped.hosts[0].gpu_average_power_watts, 0.0);
  EXPECT_GT(uncapped.hosts[0].gpu_clock_ghz, 0.0);

  for (std::size_t h = 0; h < rig.job->host_count(); ++h) {
    rig.job->set_host_gpu_cap(h, rig.job->host_gpu_min_cap(h));
  }
  const IterationResult capped = rig.job->run_iteration();
  // The offloaded kernel is compute-bound: the device cap throttles its
  // clock and the iteration critical path stretches.
  EXPECT_GT(capped.iteration_seconds, uncapped.iteration_seconds);
  EXPECT_LT(capped.hosts[0].gpu_clock_ghz,
            uncapped.hosts[0].gpu_clock_ghz);
}

TEST(JobSimGpuTest, PreviewMatchesTheProgrammedCapRun) {
  HeteroRig rig;
  const double preview = rig.job->preview_gpu_seconds(0, 150.0);
  rig.job->set_host_gpu_cap(0, 150.0);
  const IterationResult result = rig.job->run_iteration();
  EXPECT_NEAR(result.hosts[0].gpu_busy_seconds, preview,
              preview * 0.05);
  // Previews are pure: the programmed cap did not move.
  EXPECT_DOUBLE_EQ(rig.job->host_gpu_cap(0), 150.0);
}

TEST(JobSimGpuTest, GpuEnergyAndFlopsFoldIntoJobTotals) {
  HeteroRig rig;
  const IterationResult iteration = rig.job->run_iteration();
  double host_energy = 0.0;
  double gpu_energy = 0.0;
  for (const HostIterationResult& host : iteration.hosts) {
    host_energy += host.energy_joules;
    gpu_energy += host.gpu_energy_joules;
    // The per-host totals already include the GPU share.
    EXPECT_GE(host.energy_joules, host.gpu_energy_joules);
    EXPECT_GE(host.gflop, host.gpu_gflop);
  }
  EXPECT_GT(gpu_energy, 0.0);
  EXPECT_NEAR(iteration.total_energy_joules, host_energy, 1e-6);
  EXPECT_NEAR(rig.job->totals().energy_joules, host_energy, 1e-6);
}

TEST(JobSimGpuTest, GpuAccessorsRejectGpuLessHosts) {
  Cluster cluster(1);
  JobSimulation job("bare",
                    std::vector<hw::NodeModel*>{&cluster.node(0)},
                    gpu_workload());
  EXPECT_THROW(job.set_host_gpu_cap(0, 200.0), ps::Error);
  EXPECT_THROW(static_cast<void>(job.preview_gpu_seconds(0, 200.0)),
               ps::Error);
}

std::vector<hw::NodeModel*> all_hosts(Cluster& cluster) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

// Pinned-value regressions for two-domain iterations, captured from the
// per-host reference loop the iteration pass replaced (see
// job_sim_test.cpp). Together they cover the CPU waiting on its kernels,
// kernels finishing before the CPU (the GPU idle tail), devices split
// across two GPUs, GPU and CPU cap changes, a straggler, and a failed
// host.

TEST(JobSimGpuTest, GpuIterationBitsArePinned) {
  static constexpr PinnedIteration kPinned[] = {
    {0x3f8b6aba2f07ea92ULL, 0x403afbc8ba7c5ecaULL,
     0x4075800000000000ULL, 0x407f7e82de0c84a4ULL, 2, 0xf545f40cf94a67d1ULL},
    {0x3f8b6bfeb956b78cULL, 0x403afc95a847084aULL,
     0x4075800000000000ULL, 0x407f7dfd45e05ebfULL, 2, 0x1db9c581cbe1604dULL},
    {0x3f8b524dd70948c6ULL, 0x403aeec423665f66ULL,
     0x4075800000000000ULL, 0x407f8b6ad7e622ceULL, 3, 0xf17840da8b6bc2d5ULL},
    {0x3f8b825d7b12cd1cULL, 0x4037873e15330545ULL,
     0x4075800000000000ULL, 0x407b5e82963b10cdULL, 2, 0x641f9039641574c5ULL},
    {0x3f8b3ea4841ff68cULL, 0x403761e3f4469b5eULL,
     0x4075800000000000ULL, 0x407b76aba86c8d4fULL, 2, 0x61dd03adea0276c9ULL},
    {0x3f8ec221f310161dULL, 0x40355643987cc39eULL,
     0x4075800000000000ULL, 0x407632c48cbbf0e0ULL, 2, 0x3ed3df77aaa0cf56ULL},
    {0x3f8e98f9a49d3951ULL, 0x4035449e90db0576ULL,
     0x4075800000000000ULL, 0x40763e2c7f3c404fULL, 2, 0xff9449500b58bd1bULL},
    {0x3f96ce2d3f6fde6bULL, 0x403bb451566d0957ULL,
     0x4075800000000000ULL, 0x40736fe431ee7877ULL, 3, 0x8ccdc0392d677cd5ULL},
    {0x3f9671ecbd71e90bULL, 0x4034ee156fd81d70ULL,
     0x4070400000000000ULL, 0x406dd70d7c6fcc73ULL, 3, 0x59a3188cbb4434a0ULL},
    {0x3f9668fc87a87dbdULL, 0x4034e8883e7003caULL,
     0x4070400000000000ULL, 0x406ddb06fab023aaULL, 3, 0x608347b04d7c2b6bULL},
  };
  static constexpr PinnedTotals kTotals = {0x3fc4d97515f5c887ULL, 0x406dfec2b7b60b58ULL, 0x40a9900000000000ULL};
  Cluster cluster(4);
  for (std::size_t h = 0; h < 4; ++h) {
    cluster.node(h).attach_gpu();
    if (h < 2) {
      cluster.node(h).attach_gpu();  // hosts 0 and 1 split over two devices
    }
  }
  kernel::WorkloadConfig config = gpu_workload();
  config.gpu_gigabytes_per_iteration = 2.0;  // CPU and GPU phases close
  config.waiting_fraction = 0.5;
  config.imbalance = 2.0;
  JobSimulation job("hetero", all_hosts(cluster), config, NoiseParams{0.01},
                    util::Rng(5));
  PinnedScript script(job, kPinned);
  script.run(3);  // every CPU phase outlasts its kernels
  job.set_host_gpu_cap(0, job.host_gpu_min_cap(0));
  job.set_host_gpu_cap(1, job.host_gpu_min_cap(1));
  script.run(2);  // hosts 0 and 1 now wait on their kernels
  for (std::size_t h = 0; h < 4; ++h) {
    job.set_host_cap(h, 150.0);
  }
  script.run(2);
  job.set_host_slowdown(3, 1.5);
  script.run(1);
  job.set_host_failed(1, true);
  script.run(2);
  script.finish(kTotals);
}

TEST(JobSimGpuTest, MixedGpuAndCpuHostIterationBitsArePinned) {
  // Hosts 0 and 2 run the offload; 1 and 3 have no devices and run the
  // CPU phase alone.
  static constexpr PinnedIteration kPinned[] = {
    {0x3fd5f15f15f15f16ULL, 0x407f2a2f6befe1b7ULL,
     0x40b2d80000000000ULL, 0x4076b96d3eb43f40ULL, 0, 0x72ae53952d03bcc8ULL},
    {0x3fd5f15f15f15f16ULL, 0x407f2a250df99ce8ULL,
     0x40b2d80000000000ULL, 0x4076b965af860269ULL, 0, 0xfa3febe02eb85590ULL},
    {0x3fe443b106274d7dULL, 0x408680529f35dcf4ULL,
     0x40b2d80000000000ULL, 0x4071c4209e80157cULL, 0, 0xaff7fee49be6c378ULL},
    {0x3fe443b106274d7dULL, 0x40846252159be01eULL,
     0x40b2d80000000000ULL, 0x4070182eff452354ULL, 0, 0xa08bf5c6af014b2eULL},
    {0x3fe443b106274d7dULL, 0x408462562dbab894ULL,
     0x40b2d80000000000ULL, 0x407018323ad34aa0ULL, 0, 0xa27db87e4ee36f4dULL},
    {0x3fe443b106274d7dULL, 0x408462a3a7f78852ULL,
     0x40b2d80000000000ULL, 0x4070186f672b878cULL, 0, 0xb7abeb202aa1930bULL},
    {0x3fe443b106274d7dULL, 0x4081380d2fc4ce98ULL,
     0x40b2d00000000000ULL, 0x406b30da5e93cc4bULL, 0, 0xea278fe5750a1c2aULL},
    {0x3fe443b106274d7dULL, 0x4081380f53ceae2bULL,
     0x40b2d00000000000ULL, 0x406b30ddbfff5105ULL, 0, 0xf2e5ae8cf52e5f6fULL},
  };
  static constexpr PinnedTotals kTotals = {0x4011f0f0a75ba600ULL, 0x40b2a83ca9618741ULL, 0x40e2d60000000000ULL};
  Cluster cluster(4);
  cluster.node(0).attach_gpu();
  cluster.node(2).attach_gpu();
  kernel::WorkloadConfig config = gpu_workload();
  config.waiting_fraction = 0.5;
  config.imbalance = 2.0;
  JobSimulation job("mixed", all_hosts(cluster), config, NoiseParams{0.01},
                    util::Rng(13));
  ASSERT_TRUE(job.has_gpu_domain());
  ASSERT_FALSE(job.host_has_gpu_phase(1));
  PinnedScript script(job, kPinned);
  script.run(2);
  job.set_host_gpu_cap(0, job.host_gpu_min_cap(0));
  script.run(1);  // host 2's devices now idle while host 0 finishes
  job.set_host_cap(1, 160.0);
  job.set_host_cap(3, 160.0);
  script.run(2);
  job.set_host_slowdown(2, 1.4);
  script.run(1);
  job.set_host_failed(3, true);
  script.run(2);
  script.finish(kTotals);
}

}  // namespace
}  // namespace ps::sim
