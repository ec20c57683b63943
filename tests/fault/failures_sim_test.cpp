#include "sim/failures.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/coordination.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "sim/job_sim.hpp"
#include "util/error.hpp"

namespace ps::sim {
namespace {

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

kernel::WorkloadConfig gpu_heavy_config() {
  kernel::WorkloadConfig config;
  config.intensity = 4.0;
  config.gigabytes_per_iteration = 1.0;
  config.gpu_gigabytes_per_iteration = 60.0;
  config.gpu_intensity = 40.0;
  return config;
}

/// FNV-1a over the JSONL form of every traced event: caps at exact
/// numeric fidelity, so any changed bit changes the digest.
std::uint64_t trace_digest(const obs::TraceSink& sink) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const obs::TraceEvent& event : sink.events()) {
    for (const char c : obs::to_jsonl(event) + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(FailurePlanTest, SameParamsReplayTheSamePlan) {
  FailurePlanParams params;
  params.seed = 9;
  params.node_failures = 2;
  params.stragglers = 2;
  const std::array<std::size_t, 2> hosts{4, 4};
  const auto first = generate_failure_plan(params, hosts, 8);
  const auto second = generate_failure_plan(params, hosts, 8);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());

  params.seed = 10;
  EXPECT_NE(generate_failure_plan(params, hosts, 8), first);
}

TEST(FailurePlanTest, PlanRespectsStructuralConstraints) {
  FailurePlanParams params;
  params.seed = 5;
  params.node_failures = 10;  // more than the mix can absorb
  params.stragglers = 2;
  params.straggler_duration_epochs = 2;
  const std::array<std::size_t, 2> hosts{2, 3};
  const std::size_t epochs = 6;
  const auto plan = generate_failure_plan(params, hosts, epochs);

  std::set<std::pair<std::size_t, std::size_t>> killed;
  std::vector<std::size_t> kills_per_job(hosts.size(), 0);
  std::size_t previous_epoch = 0;
  for (const FailureEvent& event : plan) {
    EXPECT_GE(event.epoch, params.first_epoch);
    EXPECT_LT(event.epoch, epochs);
    EXPECT_GE(event.epoch, previous_epoch);  // sorted
    previous_epoch = event.epoch;
    ASSERT_LT(event.job, hosts.size());
    ASSERT_LT(event.host, hosts[event.job]);
    if (event.kind == FailureKind::kNodeFailure) {
      EXPECT_TRUE(killed.insert({event.job, event.host}).second)
          << "host killed twice";
      ++kills_per_job[event.job];
    } else if (event.kind == FailureKind::kStragglerOnset) {
      EXPECT_GE(event.severity, params.straggler_min_slowdown);
      EXPECT_LE(event.severity, params.straggler_max_slowdown);
      EXPECT_EQ(killed.count({event.job, event.host}), 0u)
          << "a dead host cannot straggle";
    }
  }
  // Every kill beyond last-survivor capacity was refused: (2-1) + (3-1).
  EXPECT_EQ(killed.size(), 3u);
  for (std::size_t j = 0; j < hosts.size(); ++j) {
    EXPECT_LT(kills_per_job[j], hosts[j]) << "job " << j << " orphaned";
  }
  // Each onset pairs with a recovery at +duration when inside the run.
  for (const FailureEvent& event : plan) {
    if (event.kind != FailureKind::kStragglerOnset) {
      continue;
    }
    const std::size_t expected = event.epoch +
                                 params.straggler_duration_epochs;
    bool found = false;
    for (const FailureEvent& other : plan) {
      found = found || (other.kind == FailureKind::kStragglerRecovery &&
                        other.job == event.job &&
                        other.host == event.host &&
                        other.epoch == expected);
    }
    EXPECT_EQ(found, expected < epochs);
  }
}

TEST(FailurePlanTest, RejectsInvalidParams) {
  FailurePlanParams params;
  const std::array<std::size_t, 1> hosts{4};
  EXPECT_THROW(
      static_cast<void>(generate_failure_plan(params, hosts, 1)), Error);
  EXPECT_THROW(static_cast<void>(generate_failure_plan(
                   params, std::span<const std::size_t>{}, 8)),
               Error);
  params.straggler_min_slowdown = 1.0;
  EXPECT_THROW(
      static_cast<void>(generate_failure_plan(params, hosts, 8)), Error);
}

TEST(JobSimulationFailureTest, FailedHostRunsNoWorkAndDrawsNoPower) {
  Cluster cluster(2);
  std::vector<hw::NodeModel*> hosts{&cluster.node(0), &cluster.node(1)};
  JobSimulation job("victim", std::move(hosts), hungry_config());
  job.set_host_cap(0, 180.0);
  job.set_host_cap(1, 180.0);

  job.set_host_failed(0, true);
  EXPECT_TRUE(job.host_failed(0));
  EXPECT_EQ(job.active_host_count(), 1u);
  const IterationResult result = job.run_iteration();
  EXPECT_EQ(result.hosts[0].busy_seconds, 0.0);
  EXPECT_EQ(result.hosts[0].energy_joules, 0.0);
  EXPECT_EQ(result.hosts[0].gflop, 0.0);
  EXPECT_GT(result.hosts[1].energy_joules, 0.0);
  EXPECT_EQ(result.critical_host_index, 1u);

  // The last live host is untouchable.
  EXPECT_THROW(job.set_host_failed(1, true), Error);
}

TEST(JobSimulationFailureTest, StragglerStretchesBusyTime) {
  Cluster cluster(2);
  std::vector<hw::NodeModel*> hosts{&cluster.node(0), &cluster.node(1)};
  JobSimulation job("slow", std::move(hosts), hungry_config());
  const IterationResult healthy = job.run_iteration();

  job.set_host_slowdown(0, 2.0);
  const IterationResult straggled = job.run_iteration();
  EXPECT_DOUBLE_EQ(straggled.hosts[0].busy_seconds,
                   2.0 * healthy.hosts[0].busy_seconds);

  job.set_host_slowdown(0, 1.0);
  const IterationResult recovered = job.run_iteration();
  EXPECT_DOUBLE_EQ(recovered.hosts[0].busy_seconds,
                   healthy.hosts[0].busy_seconds);
  EXPECT_THROW(job.set_host_slowdown(0, 0.5), Error);
}

/// The reclamation story end to end: a node dies mid-run, the policy
/// squeezes it to the settable floor, and the freed watts land on the
/// surviving (power-hungry) job — all inside the budget, with the
/// telemetry recording how long reclamation took.
TEST(CoordinationFailureTest, NodeFailureReclaimsWattsToSurvivors) {
  Cluster cluster(4);
  std::vector<hw::NodeModel*> hosts_a{&cluster.node(0), &cluster.node(1)};
  std::vector<hw::NodeModel*> hosts_b{&cluster.node(2), &cluster.node(3)};
  JobSimulation job_a("a-wasteful", std::move(hosts_a), wasteful_config());
  JobSimulation job_b("b-hungry", std::move(hosts_b), hungry_config());
  std::vector<JobSimulation*> jobs{&job_a, &job_b};

  const double budget = 4.0 * 180.0;
  std::vector<FailureEvent> events(1);
  events[0].epoch = 1;
  events[0].kind = FailureKind::kNodeFailure;
  events[0].job = 0;
  events[0].host = 1;

  core::CoordinationLoop loop(budget);
  core::FailureTelemetry telemetry;
  const core::CoordinationResult result =
      loop.run_dynamic(jobs, 30, events, {}, &telemetry);

  EXPECT_EQ(telemetry.events_applied, 1u);
  EXPECT_TRUE(telemetry.budget_violation_epochs.empty());
  ASSERT_EQ(telemetry.reclaims.size(), 1u);
  const core::ReclaimRecord& reclaim = telemetry.reclaims[0];
  EXPECT_EQ(reclaim.job, 0u);
  EXPECT_EQ(reclaim.host, 1u);
  EXPECT_TRUE(reclaim.reclaimed);
  EXPECT_GE(reclaim.reclaim_epoch, reclaim.event_epoch);
  EXPECT_GT(reclaim.watts_reclaimed, 0.0);
  EXPECT_GE(telemetry.mean_epochs_to_reclaim(), 0.0);

  // The dead host sits at the floor (policies park idle hosts within
  // half a watt of it); the hungry survivors got its watts.
  const double floor_cap = job_a.host(1).min_cap();
  EXPECT_LE(job_a.host_cap(1), floor_cap + 0.5);
  EXPECT_GT(job_b.host_cap(0), budget / 4.0);

  // Budget invariant after every epoch's reallocation.
  for (const core::EpochRecord& epoch : result.epochs) {
    EXPECT_LE(epoch.allocated_watts, budget + 0.5 * 4.0)
        << "epoch " << epoch.epoch;
  }
}

TEST(CoordinationFailureTest, StragglerStretchesEpochsUntilRecovery) {
  Cluster cluster(2);
  std::vector<hw::NodeModel*> hosts{&cluster.node(0), &cluster.node(1)};
  JobSimulation job("phased", std::move(hosts), hungry_config());
  std::vector<JobSimulation*> jobs{&job};

  std::vector<FailureEvent> events(2);
  events[0].epoch = 1;
  events[0].kind = FailureKind::kStragglerOnset;
  events[0].host = 0;
  events[0].severity = 2.5;
  events[1].epoch = 3;
  events[1].kind = FailureKind::kStragglerRecovery;
  events[1].host = 0;

  core::CoordinationLoop loop(2.0 * 180.0);
  core::FailureTelemetry telemetry;
  const core::CoordinationResult result =
      loop.run_dynamic(jobs, 25, events, {}, &telemetry);

  EXPECT_EQ(telemetry.events_applied, 2u);
  ASSERT_GE(result.epochs.size(), 5u);
  // Straggled epochs run visibly longer than the healthy ones on either
  // side; after recovery the pace returns.
  EXPECT_GT(result.epochs[1].elapsed_seconds,
            1.5 * result.epochs[0].elapsed_seconds);
  EXPECT_LT(result.epochs[4].elapsed_seconds,
            result.epochs[1].elapsed_seconds);
  EXPECT_DOUBLE_EQ(job.host_slowdown(0), 1.0);
}

TEST(CoordinationFailureTest, EventlessRunMatchesPlainRun) {
  const auto build = [](Cluster& cluster) {
    std::vector<hw::NodeModel*> hosts_a{&cluster.node(0),
                                        &cluster.node(1)};
    std::vector<hw::NodeModel*> hosts_b{&cluster.node(2),
                                        &cluster.node(3)};
    return std::make_pair(
        JobSimulation("a-wasteful", std::move(hosts_a), wasteful_config()),
        JobSimulation("b-hungry", std::move(hosts_b), hungry_config()));
  };
  Cluster plain_cluster(4);
  auto [plain_a, plain_b] = build(plain_cluster);
  std::vector<JobSimulation*> plain_jobs{&plain_a, &plain_b};
  core::CoordinationLoop plain(720.0);
  static_cast<void>(plain.run(plain_jobs, 15));

  Cluster failure_cluster(4);
  auto [failure_a, failure_b] = build(failure_cluster);
  std::vector<JobSimulation*> failure_jobs{&failure_a, &failure_b};
  core::CoordinationLoop with_failures(720.0);
  core::FailureTelemetry telemetry;
  static_cast<void>(
      with_failures.run_dynamic(failure_jobs, 15, {}, {}, &telemetry));

  EXPECT_EQ(telemetry.events_applied, 0u);
  EXPECT_TRUE(telemetry.reclaims.empty());
  for (std::size_t h = 0; h < 2; ++h) {
    EXPECT_DOUBLE_EQ(failure_a.host_cap(h), plain_a.host_cap(h));
    EXPECT_DOUBLE_EQ(failure_b.host_cap(h), plain_b.host_cap(h));
  }
}

TEST(CoordinationFailureTest, RejectsOutOfRangeEvents) {
  Cluster cluster(2);
  std::vector<hw::NodeModel*> hosts{&cluster.node(0), &cluster.node(1)};
  JobSimulation job("only", std::move(hosts), hungry_config());
  std::vector<JobSimulation*> jobs{&job};
  core::CoordinationLoop loop(360.0);

  std::vector<FailureEvent> bad_job(1);
  bad_job[0].job = 5;
  EXPECT_THROW(
      static_cast<void>(loop.run_dynamic(jobs, 10, bad_job, {}, nullptr)),
      Error);
  std::vector<FailureEvent> bad_host(1);
  bad_host[0].host = 9;
  EXPECT_THROW(static_cast<void>(
                   loop.run_dynamic(jobs, 10, bad_host, {}, nullptr)),
               Error);
}

/// The "coord" trace digest of a 4-job CPU mix (wasteful and hungry
/// jobs alternating) with two node failures and a straggler.
std::uint64_t cpu_mix_failure_digest(core::PolicyKind policy) {
  Cluster cluster(16);
  std::vector<std::unique_ptr<JobSimulation>> owned;
  std::vector<JobSimulation*> jobs;
  for (std::size_t j = 0; j < 4; ++j) {
    std::vector<hw::NodeModel*> hosts;
    for (std::size_t h = 0; h < 4; ++h) {
      hosts.push_back(&cluster.node(4 * j + h));
    }
    owned.push_back(std::make_unique<JobSimulation>(
        std::string(1, static_cast<char>('a' + j)), std::move(hosts),
        j % 2 == 0 ? wasteful_config() : hungry_config()));
    jobs.push_back(owned.back().get());
  }
  const std::vector<FailureEvent> events = {
      {.epoch = 1, .kind = FailureKind::kNodeFailure, .job = 0, .host = 1},
      {.epoch = 2, .kind = FailureKind::kStragglerOnset, .job = 1,
       .host = 0, .severity = 1.5},
      {.epoch = 3, .kind = FailureKind::kNodeFailure, .job = 3, .host = 2},
      {.epoch = 5, .kind = FailureKind::kStragglerRecovery, .job = 1,
       .host = 0}};
  obs::TraceSink sink;
  core::CoordinationOptions options;
  options.policy = policy;
  options.obs.trace = &sink;
  core::CoordinationLoop loop(16.0 * 200.0, options);
  static_cast<void>(loop.run_dynamic(jobs, 40, events, {}));
  return trace_digest(sink);
}

/// Failure runs program pinned bits: the CPU mix under MixedAdaptive and
/// under MinimizeWaste (which funds hosts by their observed demand, so a
/// failed host's ratchet reaches its caps), and a GPU-domain node
/// failure under a brownout. A failed host's demand ratchets are pinned
/// at its floors when its job samples, so the caps every epoch are those
/// of a loop that also reset them when the failure struck; the digests
/// were recorded from such a loop.
TEST(CoordinationFailureTest, FailureRunCapsArePinnedBitForBit) {
  EXPECT_EQ(cpu_mix_failure_digest(core::PolicyKind::kMixedAdaptive),
            0x2636339b872e9d08ULL);
  EXPECT_EQ(cpu_mix_failure_digest(core::PolicyKind::kMinimizeWaste),
            0x6a6001ccd33bbdd3ULL);
  Cluster cluster(8);
  std::vector<hw::NodeModel*> a;
  std::vector<hw::NodeModel*> b;
  for (std::size_t h = 0; h < 4; ++h) {
    cluster.node(h).attach_gpu();
    cluster.node(h + 4).attach_gpu();
    a.push_back(&cluster.node(h));
    b.push_back(&cluster.node(h + 4));
  }
  JobSimulation job_a("a-gpu", std::move(a), gpu_heavy_config());
  JobSimulation job_b("b-gpu", std::move(b), gpu_heavy_config());
  std::vector<JobSimulation*> jobs{&job_a, &job_b};
  const std::vector<FailureEvent> events = {
      {.epoch = 2, .kind = FailureKind::kNodeFailure, .job = 0, .host = 2}};
  const std::vector<core::BudgetRevision> schedule = {
      {.epoch = 1, .budget_watts = 0.8 * 8.0 * 370.0, .at_epoch = 3}};
  obs::TraceSink sink;
  core::CoordinationOptions options;
  options.policy = core::PolicyKind::kHeteroAdaptive;
  options.obs.trace = &sink;
  core::CoordinationLoop loop(8.0 * 370.0, options);
  static_cast<void>(loop.run_dynamic(jobs, 30, events, schedule));
  EXPECT_EQ(trace_digest(sink), 0x4cfcc8bab3141124ULL);
}

/// A job's sample after one of its hosts fails reports that host at its
/// floors in both domains: needed and observed demand alike, though the
/// host drew well above them before it died.
TEST(CoordinationFailureTest, FailedHostSamplesAtItsFloors) {
  Cluster cluster(2);
  cluster.node(0).attach_gpu();
  cluster.node(1).attach_gpu();
  JobSimulation job("gpu", {&cluster.node(0), &cluster.node(1)},
                    gpu_heavy_config());
  core::JobStep step(job, {});
  core::IterationTotals totals;
  step.run_epoch(2, totals);
  const core::SampleMessage before = step.sample(1);
  ASSERT_EQ(before.host_gpu_observed_watts.size(), 2u);
  EXPECT_GT(before.host_observed_watts[1], job.host(1).min_cap());
  EXPECT_GT(before.host_gpu_observed_watts[1], job.host_gpu_min_cap(1));

  job.set_host_failed(1, true);
  const core::SampleMessage after = step.sample(2);
  EXPECT_EQ(after.host_observed_watts[1], job.host(1).min_cap());
  EXPECT_EQ(after.host_needed_watts[1], job.host(1).min_cap());
  EXPECT_EQ(after.host_gpu_observed_watts[1], job.host_gpu_min_cap(1));
  EXPECT_EQ(after.host_gpu_needed_watts[1], job.host_gpu_min_cap(1));
  EXPECT_EQ(after.host_observed_watts[0], before.host_observed_watts[0]);
  EXPECT_EQ(after.host_gpu_observed_watts[0],
            before.host_gpu_observed_watts[0]);
}

}  // namespace
}  // namespace ps::sim
