// core::ControlRound: every verdict (seed / apply / keep / clamp) over a
// CPU-only, a heterogeneous and a multi-class mix, with the expected caps,
// under fatal invariants — plus the invariant set a live daemon round now
// runs.
#include "core/control_round.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "context_builder.hpp"
#include "core/invariants.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "rm/power_manager.hpp"
#include "sim/cluster.hpp"

namespace ps::core {
namespace {

using testing::make_context;
using testing::make_job;

/// A policy whose output is fixed, so each row states its caps exactly.
class FixedPolicy final : public Policy {
 public:
  explicit FixedPolicy(rm::PowerAllocation output)
      : output_(std::move(output)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fixed";
  }
  [[nodiscard]] bool is_system_aware() const noexcept override {
    return true;
  }
  [[nodiscard]] bool is_application_aware() const noexcept override {
    return true;
  }
  [[nodiscard]] rm::PowerAllocation allocate(
      const PolicyContext&) const override {
    return output_;
  }

 private:
  rm::PowerAllocation output_;
};

using Caps = std::vector<std::vector<double>>;

constexpr JobLimits kCpuJob{.hosts = 2, .floor_watts = 150.0,
                            .tdp_watts = 250.0};
constexpr JobLimits kGpuJob{.hosts = 2,
                            .floor_watts = 150.0,
                            .tdp_watts = 250.0,
                            .gpu_domain = true,
                            .gpu_floor_watts = 100.0,
                            .gpu_tdp_watts = 300.0};

/// One job mix: the limits the round bounds and the telemetry it
/// allocates from.
struct Mix {
  std::vector<JobLimits> limits;
  PolicyContext context;
};

/// Two standard 2-host CPU jobs.
Mix cpu_only(double budget) {
  return {{kCpuJob, kCpuJob},
          make_context(budget, {make_job(2, 200.0, 180.0, 150.0),
                                make_job(2, 200.0, 180.0, 150.0)})};
}

/// A 2-host CPU+GPU job beside a 2-host CPU job.
Mix hetero(double budget) {
  runtime::JobCharacterization gpu_job = make_job(2, 300.0, 180.0, 150.0);
  gpu_job.host_gpu_observed_watts = {200.0, 200.0};
  gpu_job.host_gpu_needed_watts = {200.0, 200.0};
  gpu_job.gpu_min_cap_watts = 100.0;
  gpu_job.gpu_tdp_watts = 300.0;
  return {{kGpuJob, kCpuJob},
          make_context(budget,
                       {gpu_job, make_job(2, 200.0, 180.0, 150.0)})};
}

/// A latency-critical job that needs 220 W per host beside a best-effort
/// job that needs 160 W.
Mix multi_class(double budget) {
  Mix mix{{kCpuJob, kCpuJob},
          make_context(budget, {make_job(2, 230.0, 220.0, 150.0),
                                make_job(2, 170.0, 160.0, 150.0)})};
  mix.limits[0].sla_class = sim::SlaClass::kLatencyCritical;
  mix.limits[1].sla_class = sim::SlaClass::kBestEffort;
  mix.context.jobs[0].sla_class = sim::SlaClass::kLatencyCritical;
  mix.context.jobs[1].sla_class = sim::SlaClass::kBestEffort;
  return mix;
}

/// A binding round over the mix's telemetry with a fixed policy output.
RoundOutcome allocate(const Mix& mix, double budget,
                      const rm::PowerAllocation& output,
                      const rm::PowerAllocation* in_force = nullptr,
                      bool binds = true) {
  const FixedPolicy policy(output);
  return ControlRound{.jobs = mix.limits,
                      .budget_watts = budget,
                      .policy = &policy,
                      .context = &mix.context,
                      .caps_in_force = in_force,
                      .budget_binds = binds}
      .run();
}

/// A binding round over the caps in force alone (no telemetry).
RoundOutcome recheck(const Mix& mix, double budget,
                     const rm::PowerAllocation& in_force) {
  return ControlRound{.jobs = mix.limits,
                      .budget_watts = budget,
                      .caps_in_force = &in_force,
                      .budget_binds = true}
      .run();
}

/// Every row runs with invariants fatal: a row whose caps broke the
/// invariant set would throw instead of passing.
class ControlRoundTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = invariants::mode();
    invariants::set_mode(invariants::Mode::kFatal);
    invariants::reset();
  }
  void TearDown() override {
    invariants::reset();
    invariants::set_mode(previous_);
  }

 private:
  invariants::Mode previous_ = invariants::Mode::kCount;
};

TEST_F(ControlRoundTest, SeedIsTheUniformShareSplitByTdp) {
  const RoundOutcome cpu =
      ControlRound{.jobs = cpu_only(800.0).limits, .budget_watts = 800.0}
          .run();
  EXPECT_EQ(cpu.verdict, RoundVerdict::kSeed);
  EXPECT_EQ(cpu.caps.job_host_caps, (Caps{{200.0, 200.0}, {200.0, 200.0}}));
  EXPECT_EQ(cpu.limits, 4u);
  EXPECT_DOUBLE_EQ(cpu.total_watts, 800.0);

  // 300 W per host: the GPU job splits it 250:300 by TDP; the CPU job's
  // share sits above its 250 W TDP and goes out unchanged (hosts clamp
  // it), so the fatal bounds check does not fire on a seed.
  const Mix mix = hetero(1200.0);
  const RoundOutcome gpu =
      ControlRound{.jobs = mix.limits, .budget_watts = 1200.0}.run();
  const double cpu_fraction = 250.0 / (250.0 + 300.0);
  EXPECT_EQ(gpu.verdict, RoundVerdict::kSeed);
  EXPECT_EQ(gpu.caps.job_host_caps,
            (Caps{{300.0 * cpu_fraction, 300.0 * cpu_fraction},
                  {300.0, 300.0}}));
  EXPECT_EQ(gpu.caps.job_host_gpu_caps,
            (Caps{{300.0 * (1.0 - cpu_fraction), 300.0 * (1.0 - cpu_fraction)},
                  {}}));
  EXPECT_EQ(gpu.limits, 6u);
  EXPECT_NEAR(gpu.total_watts, 1200.0, 1e-9);

  // Classes do not shape the seed.
  const RoundOutcome tenants =
      ControlRound{.jobs = multi_class(800.0).limits, .budget_watts = 800.0}
          .run();
  EXPECT_EQ(tenants.caps.job_host_caps,
            (Caps{{200.0, 200.0}, {200.0, 200.0}}));
  EXPECT_EQ(invariants::stats().violations, 0u);
}

TEST_F(ControlRoundTest, ApplyProgramsAFittingOutputUnchanged) {
  const rm::PowerAllocation cpu_output{{{210.0, 190.0}, {200.0, 195.0}}, {}};
  const RoundOutcome cpu = allocate(cpu_only(800.0), 800.0, cpu_output);
  EXPECT_EQ(cpu.verdict, RoundVerdict::kApply);
  EXPECT_EQ(cpu.caps.job_host_caps, cpu_output.job_host_caps);
  EXPECT_DOUBLE_EQ(cpu.total_watts, 795.0);

  const rm::PowerAllocation gpu_output{{{180.0, 180.0}, {200.0, 200.0}},
                                       {{220.0, 220.0}, {}}};
  const RoundOutcome gpu = allocate(hetero(1200.0), 1200.0, gpu_output);
  EXPECT_EQ(gpu.verdict, RoundVerdict::kApply);
  EXPECT_EQ(gpu.caps.job_host_caps, gpu_output.job_host_caps);
  EXPECT_EQ(gpu.caps.job_host_gpu_caps, gpu_output.job_host_gpu_caps);
  EXPECT_DOUBLE_EQ(gpu.total_watts, 1200.0);

  // Every limit covers its need and the budget covers the total: the
  // class-ordered degradation is the identity and nothing is shed.
  const rm::PowerAllocation tenant_output{{{230.0, 230.0}, {170.0, 170.0}},
                                          {}};
  const RoundOutcome tenants =
      allocate(multi_class(800.0), 800.0, tenant_output);
  EXPECT_EQ(tenants.verdict, RoundVerdict::kApply);
  EXPECT_EQ(tenants.caps.job_host_caps, tenant_output.job_host_caps);
  EXPECT_DOUBLE_EQ(tenants.shed_watts, 0.0);
}

TEST_F(ControlRoundTest, ApplyIgnoresTheBudgetWhenItDoesNotBind) {
  const rm::PowerAllocation output{{{250.0, 250.0}, {220.0, 200.0}}, {}};
  const RoundOutcome round =
      allocate(cpu_only(800.0), 800.0, output, nullptr, /*binds=*/false);
  EXPECT_EQ(round.verdict, RoundVerdict::kApply);
  EXPECT_FALSE(round.over_budget);
  EXPECT_EQ(round.caps.job_host_caps, output.job_host_caps);
}

TEST_F(ControlRoundTest, ApplyRunsTheClassOrderedDegradation) {
  // 1000 W asked of an 800 W budget: degradation re-divides the budget,
  // needs first and latency-critical first, so the output fits.
  const rm::PowerAllocation output{{{250.0, 250.0}, {250.0, 250.0}}, {}};
  const RoundOutcome round = allocate(multi_class(800.0), 800.0, output);
  EXPECT_EQ(round.verdict, RoundVerdict::kApply);
  EXPECT_LE(round.total_watts, 800.0 + 1e-6);
  EXPECT_GT(round.shed_watts, 0.0);
  for (const double cap : round.caps.job_host_caps[0]) {
    EXPECT_GE(cap, 220.0);  // the latency-critical need is met
  }
}

TEST_F(ControlRoundTest, KeepHoldsTheFittingCapsInForce) {
  const rm::PowerAllocation over{{{250.0, 250.0}, {220.0, 200.0}}, {}};
  const rm::PowerAllocation cpu_in_force{{{200.0, 200.0}, {200.0, 200.0}},
                                         {}};
  const RoundOutcome cpu =
      allocate(cpu_only(800.0), 800.0, over, &cpu_in_force);
  EXPECT_EQ(cpu.verdict, RoundVerdict::kKeep);
  EXPECT_TRUE(cpu.over_budget);
  EXPECT_TRUE(cpu.caps.job_host_caps.empty());
  EXPECT_DOUBLE_EQ(cpu.total_watts, 800.0);

  const rm::PowerAllocation gpu_over{{{240.0, 240.0}, {240.0, 240.0}},
                                     {{290.0, 290.0}, {}}};
  const rm::PowerAllocation gpu_in_force{{{150.0, 150.0}, {250.0, 250.0}},
                                         {{200.0, 200.0}, {}}};
  const RoundOutcome gpu =
      allocate(hetero(1200.0), 1200.0, gpu_over, &gpu_in_force);
  EXPECT_EQ(gpu.verdict, RoundVerdict::kKeep);
  EXPECT_TRUE(gpu.caps.job_host_caps.empty());
  EXPECT_DOUBLE_EQ(gpu.total_watts, 1200.0);

  // Degradation always fits a multi-class output under a budget above
  // the floors, so a multi-class keep is the revision path: the caps in
  // force re-checked against the budget with no telemetry.
  const rm::PowerAllocation tenant_in_force{{{220.0, 220.0}, {180.0, 180.0}},
                                            {}};
  const RoundOutcome tenants =
      recheck(multi_class(800.0), 800.0, tenant_in_force);
  EXPECT_EQ(tenants.verdict, RoundVerdict::kKeep);
  EXPECT_FALSE(tenants.over_budget);
  EXPECT_TRUE(tenants.caps.job_host_caps.empty());
}

TEST_F(ControlRoundTest, ClampScalesOntoTheBudgetFloorsFirst) {
  // No caps in force (the facility's case) or none that fit: the output
  // moves toward the 150 W floors by s = (800 - 600) / (920 - 600).
  const rm::PowerAllocation over{{{250.0, 250.0}, {220.0, 200.0}}, {}};
  const Caps clamped{{212.5, 212.5}, {193.75, 181.25}};
  const RoundOutcome cpu = allocate(cpu_only(800.0), 800.0, over);
  EXPECT_EQ(cpu.verdict, RoundVerdict::kClamp);
  EXPECT_EQ(cpu.caps.job_host_caps, clamped);
  EXPECT_DOUBLE_EQ(cpu.total_watts, 800.0);
  EXPECT_DOUBLE_EQ(cpu.shed_watts, 120.0);
  const rm::PowerAllocation stale{{{230.0, 230.0}, {220.0, 220.0}}, {}};
  EXPECT_EQ(allocate(cpu_only(800.0), 800.0, over, &stale).caps.job_host_caps,
            clamped);

  // One scale spans both domains; each domain keeps its own floor.
  const rm::PowerAllocation gpu_over{{{240.0, 240.0}, {240.0, 240.0}},
                                     {{290.0, 290.0}, {}}};
  const RoundOutcome gpu = allocate(hetero(1200.0), 1200.0, gpu_over);
  const double s = (1200.0 - 800.0) / (1540.0 - 800.0);
  const double cpu_cap = 150.0 + s * 90.0;
  const double gpu_cap = 100.0 + s * 190.0;
  EXPECT_EQ(gpu.verdict, RoundVerdict::kClamp);
  EXPECT_EQ(gpu.caps.job_host_caps, (Caps{{cpu_cap, cpu_cap}, {cpu_cap, cpu_cap}}));
  EXPECT_EQ(gpu.caps.job_host_gpu_caps, (Caps{{gpu_cap, gpu_cap}, {}}));
  EXPECT_NEAR(gpu.total_watts, 1200.0, 1e-9);

  // A revision to 700 W: best-effort sheds to its floors first, then the
  // latency-critical job gives up the last 40 of its 140 W above floor.
  const rm::PowerAllocation tenant_in_force{{{220.0, 220.0}, {180.0, 180.0}},
                                            {}};
  const RoundOutcome tenants =
      recheck(multi_class(700.0), 700.0, tenant_in_force);
  EXPECT_EQ(tenants.verdict, RoundVerdict::kClamp);
  ASSERT_EQ(tenants.caps.job_host_caps.size(), 2u);
  EXPECT_DOUBLE_EQ(tenants.caps.job_host_caps[0][0], 200.0);
  EXPECT_DOUBLE_EQ(tenants.caps.job_host_caps[0][1], 200.0);
  EXPECT_EQ(tenants.caps.job_host_caps[1], (std::vector<double>{150.0, 150.0}));
  EXPECT_DOUBLE_EQ(tenants.total_watts, 700.0);
}

TEST_F(ControlRoundTest, EmergencyClampProgramsClampedCaps) {
  sim::Cluster cluster(4);
  sim::JobSimulation job_a("a", {&cluster.node(0), &cluster.node(1)},
                           kernel::WorkloadConfig{});
  sim::JobSimulation job_b("b", {&cluster.node(2), &cluster.node(3)},
                           kernel::WorkloadConfig{});
  std::vector<sim::JobSimulation*> jobs{&job_a, &job_b};
  const rm::PowerAllocation in_force{{{190.0, 200.0}, {180.0, 210.0}}, {}};
  rm::SystemPowerManager manager(800.0);
  manager.apply(jobs, in_force);
  // A brownout to just above the settable floors, so the proportional
  // scale (not the floor fallback) decides the caps.
  const JobLimits job{.hosts = 2,
                      .floor_watts = cluster.node(0).min_cap(),
                      .tdp_watts = cluster.node(0).tdp()};
  const std::vector<JobLimits> limits{job, job};
  const double brownout = 4 * job.floor_watts + 40.0;
  ASSERT_LT(brownout, in_force.total_watts());
  const RoundOutcome round = recheck({limits, {}}, brownout, in_force);
  ASSERT_EQ(round.verdict, RoundVerdict::kClamp);
  manager.apply(jobs, round.caps, /*enforce_budget=*/false);
  EXPECT_NEAR(round.total_watts, brownout, 1e-9);
  // The programmed caps track the clamped allocation (RAPL quantization
  // slack only).
  EXPECT_NEAR(rm::SystemPowerManager::total_allocated_watts(jobs),
              round.total_watts, 0.5 * 4);
  for (std::size_t j = 0; j < round.caps.job_host_caps.size(); ++j) {
    for (const double cap : round.caps.job_host_caps[j]) {
      EXPECT_GE(cap, job.floor_watts - 1e-9);
    }
  }
}

TEST_F(ControlRoundTest, CapBoundsCoverEveryLimitGpuIncluded) {
  invariants::set_mode(invariants::Mode::kCount);
  // A GPU cap above its 300 W TDP and a CPU cap below its 150 W floor:
  // both trip, each under its own domain's bounds.
  const rm::PowerAllocation output{{{140.0, 180.0}, {200.0, 200.0}},
                                   {{350.0, 200.0}, {}}};
  const RoundOutcome round = allocate(hetero(2000.0), 2000.0, output);
  EXPECT_EQ(round.verdict, RoundVerdict::kApply);
  EXPECT_EQ(invariants::stats().violations, 2u);
  // One budget check plus one bounds check per limit.
  EXPECT_EQ(invariants::stats().checks, 1u + round.limits);
  EXPECT_NE(invariants::last_violation().find("gpu_cap"), std::string::npos);
}

TEST_F(ControlRoundTest, DaemonRoundChecksEveryLimitsBounds) {
  // A live daemon: one heterogeneous 2-host job. Its first exchange is
  // the bootstrap seed; the second is an allocation round, which must
  // run one budget check plus one bounds check per limit (2 CPU + 2 GPU).
  const std::string path =
      "/tmp/ps-round-" + std::to_string(::getpid()) + ".sock";
  net::DaemonOptions options;
  options.system_budget_watts = 1200.0;
  options.policy = PolicyKind::kHeteroAdaptive;
  options.tick_interval = std::chrono::milliseconds(20);
  net::PowerDaemon daemon(options);
  daemon.listen_unix(path);
  std::thread serving([&daemon] { daemon.run(); });

  net::RuntimeClient client([&path] { return net::connect_unix(path); });
  SampleMessage sample;
  sample.job_name = "gpu-job";
  sample.min_settable_cap_watts = 152.0;
  sample.host_observed_watts = {230.0, 230.0};
  sample.host_needed_watts = {200.0, 200.0};
  sample.host_gpu_observed_watts = {250.0, 250.0};
  sample.host_gpu_needed_watts = {240.0, 240.0};
  sample.gpu_min_cap_watts = 100.0;
  sample.gpu_tdp_watts = 300.0;
  const bool seeded = client.exchange(sample).has_value();
  invariants::reset();
  sample.sequence = 1;
  const auto policy = client.exchange(sample);
  const invariants::Stats stats = invariants::stats();
  daemon.stop();
  serving.join();
  ::unlink(path.c_str());

  ASSERT_TRUE(seeded);
  ASSERT_TRUE(policy.has_value());
  EXPECT_EQ(policy->host_gpu_caps_watts.size(), 2u);
  EXPECT_EQ(stats.checks, 1u + 4u);
  EXPECT_EQ(stats.violations, 0u);
}

}  // namespace
}  // namespace ps::core
