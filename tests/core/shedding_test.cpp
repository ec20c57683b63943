// The two class-ordered shedding steps of the control round, row by row.
// ShedByClassTest: apply_sla_degradation re-divides a mixed-class policy
// allocation so best_effort sheds toward its floors before standard, and
// latency_critical last — identity under abundance, never below floors,
// never above the input total. ClampAllocationTest and
// MultiDomainClampTest: clamp_to_budget scales caps onto the budget, each
// domain toward its own floor, read from the round's JobLimits.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "context_builder.hpp"
#include "core/control_round.hpp"
#include "core/degradation.hpp"
#include "core/policy.hpp"
#include "rm/allocation.hpp"
#include "sim/sla.hpp"
#include "util/error.hpp"

namespace ps::core {
namespace {

using sim::SlaClass;

/// A job whose hosts share the 152 W floor and need `needed[h]`.
runtime::JobCharacterization job(SlaClass sla_class,
                                 std::vector<double> needed) {
  runtime::JobCharacterization characterization;
  characterization.sla_class = sla_class;
  characterization.host_count = needed.size();
  characterization.min_settable_cap_watts = 152.0;
  characterization.balancer.host_needed_power_watts = std::move(needed);
  return characterization;
}

rm::PowerAllocation shed(std::vector<runtime::JobCharacterization> jobs,
                         const rm::PowerAllocation& allocation,
                         double budget_watts) {
  PolicyContext context;
  context.system_budget_watts = budget_watts;
  context.jobs = std::move(jobs);
  return apply_sla_degradation(context, allocation, budget_watts, "test");
}

TEST(ShedByClassTest, IdentityUnderAbundance) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0, 210.0}, {180.0, 190.0}};
  // Budget covers the allocation and every cap covers its need: the pass
  // must return the input bit-for-bit.
  const rm::PowerAllocation out =
      shed({job(SlaClass::kLatencyCritical, {190.0, 195.0}),
            job(SlaClass::kBestEffort, {170.0, 180.0})},
           allocation, 1000.0);
  ASSERT_EQ(out.job_host_caps, allocation.job_host_caps);
  EXPECT_TRUE(out.job_host_gpu_caps.empty());
}

TEST(ShedByClassTest, BestEffortShedsToFloorsFirst) {
  // Two jobs, one host each. Needs: LC 220, BE 220; floors 152 each.
  // Budget 400: after floors (304), 96 W remain — LC's need (68 above
  // floor) is fully granted, BE gets the remaining 28 above floor.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{220.0}, {220.0}};
  const rm::PowerAllocation out =
      shed({job(SlaClass::kLatencyCritical, {220.0}),
            job(SlaClass::kBestEffort, {220.0})},
           allocation, 400.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[0][0], 220.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[1][0], 180.0);
  EXPECT_DOUBLE_EQ(out.total_watts(), 400.0);
}

TEST(ShedByClassTest, LowerClassesPinnedAtFloorsWhenHigherClassStarved) {
  // Budget covers floors plus only part of the latency_critical need:
  // standard and best_effort must sit exactly on their floors.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{240.0}, {240.0}, {240.0}};
  const rm::PowerAllocation out =
      shed({job(SlaClass::kLatencyCritical, {240.0}),
            job(SlaClass::kStandard, {240.0}),
            job(SlaClass::kBestEffort, {240.0})},
           allocation, 500.0);
  // Floors: 456. Remaining 44 all flow to the latency_critical job.
  EXPECT_DOUBLE_EQ(out.job_host_caps[0][0], 196.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[1][0], 152.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[2][0], 152.0);
}

TEST(ShedByClassTest, ProportionalWithinStarvedClass) {
  // Two standard jobs with different needs share a partial grant at the
  // same fraction of (needed - floor). A best_effort job at its floor
  // makes the mix multi-class and takes nothing but its floor.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{252.0}, {202.0}, {152.0}};
  // Floors 456; budget leaves 75 of the 150 needed above floors: half.
  const rm::PowerAllocation out =
      shed({job(SlaClass::kStandard, {252.0}),  // need above floor 100
            job(SlaClass::kStandard, {202.0}),  // need above floor 50
            job(SlaClass::kBestEffort, {152.0})},
           allocation, 379.0 + 152.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[0][0], 202.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[1][0], 177.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[2][0], 152.0);
}

TEST(ShedByClassTest, NeverBelowFloorsEvenWhenBudgetIsBelowFloors) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0}, {200.0}};
  const rm::PowerAllocation out =
      shed({job(SlaClass::kLatencyCritical, {200.0}),
            job(SlaClass::kBestEffort, {200.0})},
           allocation, 100.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[0][0], 152.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[1][0], 152.0);
}

TEST(ShedByClassTest, SurplusRestoredHighestClassFirst) {
  // Budget covers all needs plus 30 W of the 40 W surplus in the input.
  // The latency_critical job's 20 W surplus is restored in full; the
  // best_effort job gets the remaining 10 of its 20.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{220.0}, {220.0}};
  const rm::PowerAllocation out =
      shed({job(SlaClass::kLatencyCritical, {200.0}),
            job(SlaClass::kBestEffort, {200.0})},
           allocation, 430.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[0][0], 220.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[1][0], 210.0);
}

TEST(ShedByClassTest, TotalNeverExceedsInputTotalOrBudget) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{230.0, 230.0}, {230.0}};
  // Floors are never violated, so the reachable total is the target
  // clamped from below by the summed floors (456 W here): a 100 W
  // budget still leaves every host at its floor.
  const double floors = 3 * 152.0;
  for (const double budget : {100.0, 500.0, 600.0, 690.0, 10000.0}) {
    const rm::PowerAllocation out =
        shed({job(SlaClass::kLatencyCritical, {250.0, 250.0}),
              job(SlaClass::kBestEffort, {250.0})},
             allocation, budget);
    EXPECT_LE(out.total_watts(),
              std::max(std::min(budget, allocation.total_watts()), floors) +
                  1e-9)
        << "budget " << budget;
    EXPECT_LE(out.total_watts(), allocation.total_watts() + 1e-9);
  }
}

TEST(ShedByClassTest, GpuDomainShedsWithItsJobClass) {
  // A heterogeneous best_effort job must shed its GPU lane to the GPU
  // floor while a latency_critical CPU-only job keeps its need.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{220.0}, {200.0}};
  allocation.job_host_gpu_caps = {{}, {300.0}};
  runtime::JobCharacterization be = job(SlaClass::kBestEffort, {200.0});
  be.gpu_min_cap_watts = 100.0;
  be.host_gpu_needed_watts = {300.0};
  // Floors: 152 + 152 + 100 = 404. Budget 480 leaves 76: LC's 68 is
  // satisfied first; BE's CPU+GPU lanes split the remaining 8
  // proportionally to need-above-floor (48 and 200 → ratio 8/248).
  const rm::PowerAllocation out =
      shed({job(SlaClass::kLatencyCritical, {220.0}), be}, allocation, 480.0);
  EXPECT_DOUBLE_EQ(out.job_host_caps[0][0], 220.0);
  const double scale = 8.0 / 248.0;
  EXPECT_NEAR(out.job_host_caps[1][0], 152.0 + scale * 48.0, 1e-9);
  EXPECT_NEAR(out.job_host_gpu_caps[1][0], 100.0 + scale * 200.0, 1e-9);
}

/// A standard CPU-only job's limits (TDP plays no part in the clamp).
JobLimits cpu_job(std::size_t hosts, double floor_watts) {
  return {.hosts = hosts, .floor_watts = floor_watts, .tdp_watts = 300.0};
}

/// The same with a GPU domain on every host.
JobLimits gpu_job(std::size_t hosts, double floor_watts,
                  double gpu_floor_watts) {
  JobLimits limits = cpu_job(hosts, floor_watts);
  limits.gpu_domain = true;
  limits.gpu_floor_watts = gpu_floor_watts;
  limits.gpu_tdp_watts = 400.0;
  return limits;
}

TEST(ClampAllocationTest, NoopWhenAllocationFits) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{190.0, 200.0}, {180.0, 210.0}};  // 780 W
  const std::vector<JobLimits> jobs = {cpu_job(2, 150.0), cpu_job(2, 150.0)};
  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 800.0);
  EXPECT_EQ(clamped.job_host_caps, allocation.job_host_caps);
}

TEST(ClampAllocationTest, ScalesProportionallyAboveTheFloors) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0, 250.0}};  // 450 W
  const std::vector<JobLimits> jobs = {cpu_job(2, 150.0)};
  // Budget 375 W: Σf = 300, s = (375-300)/(450-300) = 0.5.
  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 375.0);
  EXPECT_DOUBLE_EQ(clamped.job_host_caps[0][0], 175.0);
  EXPECT_DOUBLE_EQ(clamped.job_host_caps[0][1], 200.0);
  EXPECT_DOUBLE_EQ(clamped.total_watts(), 375.0);  // watt-exact on budget
}

TEST(ClampAllocationTest, FloorsWinWhenBudgetIsBelowThem) {
  // Two one-host jobs with different floors.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0}, {250.0}};
  const std::vector<JobLimits> jobs = {cpu_job(1, 150.0), cpu_job(1, 160.0)};
  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 100.0);
  // Never below a settable minimum, even when that overshoots the budget.
  EXPECT_DOUBLE_EQ(clamped.job_host_caps[0][0], 150.0);
  EXPECT_DOUBLE_EQ(clamped.job_host_caps[1][0], 160.0);
}

TEST(ClampAllocationTest, PreservesShapeOrdering) {
  // The policy's relative preferences survive the clamp: a host that got
  // more above its floor keeps more.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{160.0, 240.0, 200.0}};
  const std::vector<JobLimits> jobs = {cpu_job(3, 150.0)};
  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 500.0);
  EXPECT_LT(clamped.job_host_caps[0][0], clamped.job_host_caps[0][2]);
  EXPECT_LT(clamped.job_host_caps[0][2], clamped.job_host_caps[0][1]);
  EXPECT_NEAR(clamped.total_watts(), 500.0, 1e-9);
}

TEST(ClampAllocationTest, ShapeMismatchMessagesNameTheAxis) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0, 250.0}};
  const std::vector<JobLimits> two_jobs = {cpu_job(2, 150.0),
                                           cpu_job(1, 150.0)};
  try {
    static_cast<void>(clamp_to_budget(allocation, two_jobs, 400.0));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("number of jobs"),
              std::string::npos);
  }
  const std::vector<JobLimits> one_host = {cpu_job(1, 150.0)};
  try {
    static_cast<void>(clamp_to_budget(allocation, one_host, 400.0));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("number of hosts"),
              std::string::npos);
  }
  const std::vector<JobLimits> negative = {cpu_job(2, -1.0)};
  EXPECT_THROW(static_cast<void>(clamp_to_budget(allocation, negative, 400.0)),
               InvalidArgument);
  const std::vector<JobLimits> fine = {cpu_job(2, 150.0)};
  EXPECT_THROW(static_cast<void>(clamp_to_budget(allocation, fine, 0.0)),
               InvalidArgument);
}

// The emergency clamp must floor-preserve each domain separately, and
// the PolicyContext TDP fallback must never invert a clamp range.

TEST(MultiDomainClampTest, SingleScaleSpansBothDomains) {
  // One 2-host job: CPU caps 200/240, GPU caps 250/290, floors 152/100.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0, 240.0}};
  allocation.job_host_gpu_caps = {{250.0, 290.0}};
  const std::vector<JobLimits> jobs = {gpu_job(2, 152.0, 100.0)};

  // Σcaps = 980, Σfloors = 504. A 742 W budget leaves s = 0.5.
  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 742.0);
  EXPECT_NEAR(clamped.total_watts(), 742.0, 1e-9);
  // Every cap moves toward its own domain's floor by the same fraction.
  EXPECT_NEAR(clamped.job_host_caps[0][0], 152.0 + 0.5 * 48.0, 1e-9);
  EXPECT_NEAR(clamped.job_host_caps[0][1], 152.0 + 0.5 * 88.0, 1e-9);
  EXPECT_NEAR(clamped.job_host_gpu_caps[0][0], 100.0 + 0.5 * 150.0, 1e-9);
  EXPECT_NEAR(clamped.job_host_gpu_caps[0][1], 100.0 + 0.5 * 190.0, 1e-9);
}

TEST(MultiDomainClampTest, BrownoutPreservesEachDomainsFloor) {
  // A GPU-heavy job under a brownout far below its allocation: no cap —
  // in either domain — may land below its own settable floor.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{180.0, 180.0}};
  allocation.job_host_gpu_caps = {{280.0, 280.0}};
  const std::vector<JobLimits> jobs = {gpu_job(2, 152.0, 100.0)};

  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 100.0);
  // Even though the budget is unservable, the stack never programs below
  // a settable minimum: both domains land exactly on their floors.
  EXPECT_EQ(clamped.job_host_caps[0], std::vector<double>(2, 152.0));
  EXPECT_EQ(clamped.job_host_gpu_caps[0], std::vector<double>(2, 100.0));
}

TEST(MultiDomainClampTest, MixedClusterClampsOnlyTheHeteroJobsGpuRow) {
  // Hetero job + CPU-only job. The CPU-only job's GPU row is empty and
  // must stay empty through the clamp.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0}, {240.0}};
  allocation.job_host_gpu_caps = {{280.0}, {}};
  const std::vector<JobLimits> jobs = {gpu_job(1, 152.0, 100.0),
                                       cpu_job(1, 152.0)};

  const rm::PowerAllocation clamped = clamp_to_budget(allocation, jobs, 600.0);
  EXPECT_NEAR(clamped.total_watts(), 600.0, 1e-9);
  EXPECT_TRUE(clamped.job_host_gpu_caps[1].empty());
  EXPECT_GE(clamped.job_host_gpu_caps[0][0], 100.0);
  EXPECT_GE(clamped.job_host_caps[0][0], 152.0);
  EXPECT_GE(clamped.job_host_caps[1][0], 152.0);
}

TEST(MultiDomainClampTest, GpuFloorShapeMismatchIsRejected) {
  // A GPU row longer than the job's host count has no floor to match.
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0}};
  allocation.job_host_gpu_caps = {{280.0, 280.0}};
  const std::vector<JobLimits> jobs = {gpu_job(1, 152.0, 100.0)};
  EXPECT_THROW(static_cast<void>(clamp_to_budget(allocation, jobs, 400.0)),
               ps::Error);
}

TEST(MultiDomainClampTest, JobTdpFallbackNeverInvertsTheClampRange) {
  // The regression this test exists for: a job whose settable floor
  // exceeds the context-wide TDP guess. validate() rejects it outright —
  // the saturating job_tdp_watts() fallback must not mask that.
  core::PolicyContext context = core::testing::make_context(
      700.0, {core::testing::make_job(2, 214.0, 190.0, 500.0)});
  EXPECT_THROW(context.validate(), ps::Error);

  // But on the unvalidated emergency path the fallback saturates at the
  // floor instead of handing downstream an inverted [min, TDP] range.
  EXPECT_GE(context.job_tdp_watts(0), context.jobs[0].min_settable_cap_watts);

  // A per-job TDP wins over the context guess.
  context.jobs[0].node_tdp_watts = 520.0;
  EXPECT_DOUBLE_EQ(context.job_tdp_watts(0), 520.0);
  EXPECT_NO_THROW(context.validate());
}

}  // namespace
}  // namespace ps::core
