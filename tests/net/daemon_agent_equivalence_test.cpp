// The job side over a socket: CoordinatedAgents hold the same per-job
// step the in-memory loop runs, so a daemon-run mix programs the loop's
// caps every round — GPU domain and failed-host floors included. Each
// agent records its job's caps after every epoch; each record must equal,
// bit for bit, the caps CoordinationLoop::run_dynamic traced for that
// epoch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/coordination.hpp"
#include "core/invariants.hpp"
#include "net/agent.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kEpochIterations = 5;

kernel::WorkloadConfig gpu_heavy_config() {
  kernel::WorkloadConfig config;
  config.intensity = 4.0;
  config.gigabytes_per_iteration = 1.0;
  config.gpu_gigabytes_per_iteration = 60.0;
  config.gpu_intensity = 40.0;
  return config;
}

kernel::WorkloadConfig cpu_heavy_config() {
  kernel::WorkloadConfig config;
  config.intensity = 32.0;
  config.gpu_gigabytes_per_iteration = 4.0;
  return config;
}

kernel::WorkloadConfig wasteful_config() {
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 3.0;
  return config;
}

kernel::WorkloadConfig hungry_config() {
  kernel::WorkloadConfig config;
  config.intensity = 32.0;
  return config;
}

/// Jobs of `hosts_per_job` nodes each on one cluster, GPUs attached when
/// asked. Names sort in construction order, the daemon's round order.
struct Mix {
  Mix(const std::vector<std::pair<std::string, kernel::WorkloadConfig>>& spec,
      std::size_t hosts_per_job, bool gpus) {
    cluster = std::make_unique<sim::Cluster>(hosts_per_job * spec.size());
    for (std::size_t j = 0; j < spec.size(); ++j) {
      std::vector<hw::NodeModel*> hosts;
      for (std::size_t h = 0; h < hosts_per_job; ++h) {
        hw::NodeModel& node = cluster->node(j * hosts_per_job + h);
        if (gpus) {
          node.attach_gpu();
        }
        hosts.push_back(&node);
      }
      jobs.push_back(std::make_unique<sim::JobSimulation>(
          spec[j].first, std::move(hosts), spec[j].second));
      ptrs.push_back(jobs.back().get());
    }
  }

  std::unique_ptr<sim::Cluster> cluster;
  std::vector<std::unique_ptr<sim::JobSimulation>> jobs;
  std::vector<sim::JobSimulation*> ptrs;
};

Mix hetero_mix() {
  return Mix({{"a-gpu-heavy", gpu_heavy_config()},
              {"b-cpu-heavy", cpu_heavy_config()}},
             4, /*gpus=*/true);
}

Mix cpu_mix() {
  return Mix({{"a-wasteful", wasteful_config()},
              {"b-hungry", hungry_config()},
              {"c-wasteful", wasteful_config()},
              {"d-hungry", hungry_config()}},
             4, /*gpus=*/false);
}

obs::ReplayedJobCaps read_caps(const sim::JobSimulation& job) {
  obs::ReplayedJobCaps caps;
  caps.job = job.name();
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    caps.caps_watts.push_back(job.host_cap(h));
    if (job.has_gpu_domain()) {
      caps.gpu_caps_watts.push_back(job.host_gpu_cap(h));
    }
  }
  return caps;
}

/// Per epoch, per job: the caps the loop programmed at that epoch's RM
/// step, rebuilt from its "coord" trace.
std::vector<std::vector<obs::ReplayedJobCaps>> loop_caps(
    Mix& mix, double budget, core::PolicyKind policy, std::size_t epochs,
    std::span<const sim::FailureEvent> events,
    std::span<const core::BudgetRevision> schedule) {
  obs::TraceSink sink;
  core::CoordinationOptions options;
  options.epoch_iterations = kEpochIterations;
  options.policy = policy;
  options.obs.trace = &sink;
  core::CoordinationLoop loop(budget, options);
  static_cast<void>(loop.run_dynamic(mix.ptrs, epochs * kEpochIterations,
                                     events, schedule));
  std::vector<std::vector<obs::ReplayedJobCaps>> caps;
  for (const obs::ReplayedAllocation& step :
       obs::replay_allocations(sink.events())) {
    caps.push_back(step.jobs);
  }
  return caps;
}

/// The same scenario through a daemon and one agent thread per job. Each
/// failure event hits its host before its epoch runs, as the loop applies
/// it. Returns, per epoch and job, the caps the agent held after that
/// epoch's exchange.
std::vector<std::vector<obs::ReplayedJobCaps>> daemon_caps(
    Mix& mix, double budget, core::PolicyKind policy, std::size_t epochs,
    const std::vector<core::BudgetRevision>& schedule,
    const std::vector<sim::FailureEvent>& events, const std::string& tag) {
  const std::string path = "/tmp/ps-agent-eq-" + tag + "-" +
                           std::to_string(::getpid()) + ".sock";
  DaemonOptions options;
  options.system_budget_watts = budget;
  options.policy = policy;
  options.node_tdp_watts = mix.cluster->node(0).tdp();
  options.uncappable_watts = mix.cluster->node(0).params().dram_watts;
  options.min_jobs = mix.jobs.size();
  options.tick_interval = milliseconds(20);
  options.budget_revisions = schedule;
  PowerDaemon daemon(options);
  daemon.listen_unix(path);
  std::thread serving([&daemon] { daemon.run(); });

  std::vector<std::vector<obs::ReplayedJobCaps>> caps(
      epochs, std::vector<obs::ReplayedJobCaps>(mix.jobs.size()));
  std::vector<std::thread> agents;
  for (std::size_t j = 0; j < mix.jobs.size(); ++j) {
    agents.emplace_back([&, j] {
      ClientOptions client_options;
      client_options.request_timeout = milliseconds(20'000);
      RuntimeClient client([&path] { return connect_unix(path); },
                           client_options);
      sim::JobSimulation& job = *mix.jobs[j];
      CoordinatedAgent agent(job, client,
                             {.epoch_iterations = kEpochIterations});
      for (std::size_t e = 0; e < epochs; ++e) {
        for (const sim::FailureEvent& event : events) {
          if (event.job == j && event.epoch == e) {
            job.set_host_failed(event.host, true);
          }
        }
        const AgentResult result = agent.run(kEpochIterations);
        EXPECT_EQ(result.fallback_epochs, 0u) << job.name();
        caps[e][j] = read_caps(job);
      }
    });
  }
  for (std::thread& agent : agents) {
    agent.join();
  }
  daemon.stop();
  serving.join();
  std::remove(path.c_str());
  EXPECT_EQ(daemon.stats().budget_revisions_applied, schedule.size());
  return caps;
}

void expect_same_caps(
    const std::vector<std::vector<obs::ReplayedJobCaps>>& expected,
    const std::vector<std::vector<obs::ReplayedJobCaps>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(expected[e].size(), actual[e].size());
    for (std::size_t j = 0; j < expected[e].size(); ++j) {
      const obs::ReplayedJobCaps& want = expected[e][j];
      const obs::ReplayedJobCaps& got = actual[e][j];
      EXPECT_EQ(want.job, got.job);
      ASSERT_EQ(want.caps_watts.size(), got.caps_watts.size());
      ASSERT_EQ(want.gpu_caps_watts.size(), got.gpu_caps_watts.size());
      for (std::size_t h = 0; h < want.caps_watts.size(); ++h) {
        EXPECT_EQ(want.caps_watts[h], got.caps_watts[h])
            << "epoch " << e << " job " << want.job << " host " << h;
      }
      for (std::size_t h = 0; h < want.gpu_caps_watts.size(); ++h) {
        EXPECT_EQ(want.gpu_caps_watts[h], got.gpu_caps_watts[h])
            << "epoch " << e << " job " << want.job << " GPU host " << h;
      }
    }
  }
}

/// The heterogeneous brownout: a GPU-heavy and a CPU-heavy job under
/// HeteroAdaptive take a 25% emergency drop at epoch 2. Over the socket
/// the agents report GPU demand and need and program GPU caps, so both
/// domains land on the loop's watts every round.
TEST(DaemonIntegrationTest, AgentsMatchLoopCapsThroughHeteroBrownout) {
  const core::invariants::Mode previous_mode = core::invariants::mode();
  core::invariants::set_mode(core::invariants::Mode::kFatal);
  core::invariants::reset();

  const double budget = 8.0 * 370.0;
  const std::size_t epochs = 6;
  std::vector<core::BudgetRevision> schedule(1);
  schedule[0].epoch = 1;
  schedule[0].budget_watts = 0.75 * budget;
  schedule[0].at_epoch = 2;
  schedule[0].emergency = true;

  Mix reference = hetero_mix();
  const auto expected =
      loop_caps(reference, budget, core::PolicyKind::kHeteroAdaptive, epochs,
                {}, schedule);
  ASSERT_EQ(expected.size(), epochs);
  ASSERT_FALSE(expected[0][0].gpu_caps_watts.empty());

  Mix distributed = hetero_mix();
  expect_same_caps(expected,
                   daemon_caps(distributed, budget,
                               core::PolicyKind::kHeteroAdaptive, epochs,
                               schedule, {}, "hetero"));
  EXPECT_EQ(core::invariants::stats().violations, 0u);
  core::invariants::reset();
  core::invariants::set_mode(previous_mode);
}

/// A node dies before epoch 2: the agent's next sample pins the dead
/// host's demand and need at the floor, as the loop's does, so the
/// policy reclaims the same watts on both sides every round.
TEST(DaemonIntegrationTest, AgentsMatchLoopCapsThroughNodeFailure) {
  const double budget = 16.0 * 200.0;
  const std::size_t epochs = 6;
  const std::vector<sim::FailureEvent> events = {
      {.epoch = 2, .kind = sim::FailureKind::kNodeFailure, .job = 1,
       .host = 2}};

  Mix reference = cpu_mix();
  const auto expected = loop_caps(reference, budget,
                                  core::PolicyKind::kMixedAdaptive, epochs,
                                  events, {});
  ASSERT_EQ(expected.size(), epochs);
  // The dead host was squeezed toward its floor: the scenario moves caps.
  EXPECT_LT(expected.back()[1].caps_watts[2], expected[1][1].caps_watts[2]);

  Mix distributed = cpu_mix();
  expect_same_caps(expected,
                   daemon_caps(distributed, budget,
                               core::PolicyKind::kMixedAdaptive, epochs, {},
                               events, "failure"));
}

}  // namespace
}  // namespace ps::net
