#include "core/policies.hpp"

#include <gtest/gtest.h>

#include "context_builder.hpp"
#include "util/error.hpp"

namespace ps::core {
namespace {

using testing::make_context;
using testing::make_job;

TEST(PolicyRegistryTest, MakesAllFivePolicies) {
  const std::vector<PolicyKind> kinds = all_policy_kinds();
  ASSERT_EQ(kinds.size(), 5u);
  for (PolicyKind kind : kinds) {
    const auto policy = make_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), to_string(kind));
  }
}

TEST(PolicyRegistryTest, AwarenessMatrixMatchesPaper) {
  EXPECT_FALSE(make_policy(PolicyKind::kPrecharacterized)->is_system_aware());
  EXPECT_FALSE(
      make_policy(PolicyKind::kPrecharacterized)->is_application_aware());
  EXPECT_TRUE(make_policy(PolicyKind::kStaticCaps)->is_system_aware());
  EXPECT_FALSE(make_policy(PolicyKind::kStaticCaps)->is_application_aware());
  EXPECT_TRUE(make_policy(PolicyKind::kMinimizeWaste)->is_system_aware());
  EXPECT_FALSE(
      make_policy(PolicyKind::kMinimizeWaste)->is_application_aware());
  EXPECT_FALSE(make_policy(PolicyKind::kJobAdaptive)->is_system_aware());
  EXPECT_TRUE(make_policy(PolicyKind::kJobAdaptive)->is_application_aware());
  EXPECT_TRUE(make_policy(PolicyKind::kMixedAdaptive)->is_system_aware());
  EXPECT_TRUE(
      make_policy(PolicyKind::kMixedAdaptive)->is_application_aware());
}

TEST(PolicyRegistryTest, ParsesEveryKindByNameIgnoringCase) {
  const PolicyKind kinds[] = {
      PolicyKind::kPrecharacterized, PolicyKind::kStaticCaps,
      PolicyKind::kMinimizeWaste,    PolicyKind::kJobAdaptive,
      PolicyKind::kMixedAdaptive,    PolicyKind::kHeteroAdaptive};
  for (PolicyKind kind : kinds) {
    EXPECT_EQ(parse_policy_kind(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_EQ(parse_policy_kind("heteroadaptive"), PolicyKind::kHeteroAdaptive);
  EXPECT_EQ(parse_policy_kind("MIXEDADAPTIVE"), PolicyKind::kMixedAdaptive);
  EXPECT_EQ(parse_policy_kind("NoSuchPolicy"), std::nullopt);
  EXPECT_EQ(parse_policy_kind(""), std::nullopt);
}

TEST(PrecharacterizedTest, CapsEachJobAtItsHungriestNode) {
  const PolicyContext context = make_context(
      1000.0, {make_job(2, 214.0, 190.0), make_job(2, 228.0, 220.0)});
  const rm::PowerAllocation allocation =
      PrecharacterizedPolicy{}.allocate(context);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 214.0);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][1], 214.0);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[1][0], 228.0);
}

TEST(PrecharacterizedTest, IgnoresTheBudget) {
  // Two jobs of 2 hosts at ~214/228 W against a 500 W budget: exceeds it.
  const PolicyContext context = make_context(
      500.0, {make_job(2, 214.0, 190.0), make_job(2, 228.0, 220.0)});
  const rm::PowerAllocation allocation =
      PrecharacterizedPolicy{}.allocate(context);
  EXPECT_GT(allocation.total_watts(), 500.0);
}

TEST(StaticCapsTest, UniformShareCappedAtJobMax) {
  const PolicyContext context = make_context(
      4 * 220.0, {make_job(2, 205.0, 190.0), make_job(2, 230.0, 220.0)});
  const rm::PowerAllocation allocation = StaticCapsPolicy{}.allocate(context);
  // Share is 220; job 0 clips at its monitor max 205.
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 205.0);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[1][0], 220.0);
  EXPECT_TRUE(allocation.within_budget(context.system_budget_watts));
}

TEST(StaticCapsTest, ShareBelowFloorClampsUp) {
  const PolicyContext context =
      make_context(4 * 100.0, {make_job(4, 214.0, 190.0)});
  const rm::PowerAllocation allocation = StaticCapsPolicy{}.allocate(context);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 152.0);
}

TEST(MinimizeWasteTest, SurplusBudgetCapsAtObservedDemand) {
  const PolicyContext context = make_context(
      4 * 250.0, {make_job(2, 205.0, 180.0), make_job(2, 230.0, 225.0)});
  const rm::PowerAllocation allocation =
      MinimizeWastePolicy{}.allocate(context);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 205.0);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[1][0], 230.0);
  // The rest of the budget is deliberately unallocated.
  EXPECT_LT(allocation.total_watts(), context.system_budget_watts);
}

TEST(MinimizeWasteTest, ShortageScalesProportionallyToDemand) {
  const PolicyContext context = make_context(
      4 * 200.0, {make_job(2, 210.0, 180.0), make_job(2, 230.0, 225.0)});
  const rm::PowerAllocation allocation =
      MinimizeWastePolicy{}.allocate(context);
  const double ratio0 = allocation.job_host_caps[0][0] / 210.0;
  const double ratio1 = allocation.job_host_caps[1][0] / 230.0;
  EXPECT_NEAR(ratio0, ratio1, 1e-9);
  EXPECT_NEAR(allocation.total_watts(), 800.0, 0.5);
}

TEST(MinimizeWasteTest, LowDemandJobsFundHighDemandJobs) {
  const PolicyContext context = make_context(
      4 * 200.0, {make_job(2, 180.0, 170.0), make_job(2, 230.0, 225.0)});
  const rm::PowerAllocation allocation =
      MinimizeWastePolicy{}.allocate(context);
  // Low-power job gets less than the uniform share; high-power gets more.
  EXPECT_LT(allocation.job_host_caps[0][0], 200.0);
  EXPECT_GT(allocation.job_host_caps[1][0], 200.0);
}

TEST(MinimizeWasteTest, FlooredHostsTriggerRescale) {
  // One job's proportional share lands below the floor; the budget it
  // cannot give up must come from somewhere without breaking the total.
  const PolicyContext context = make_context(
      4 * 170.0, {make_job(2, 155.0, 152.0), make_job(2, 230.0, 225.0)});
  const rm::PowerAllocation allocation =
      MinimizeWastePolicy{}.allocate(context);
  EXPECT_GE(allocation.job_host_caps[0][0], 152.0);
  EXPECT_LE(allocation.total_watts(), context.system_budget_watts + 0.5);
}

TEST(JobAdaptiveTest, DistributesNeededWithinJobBudget) {
  // One job: 2 waiting hosts (need 152) + 2 critical (need 220),
  // job budget = 4 * 190 = 760 > needed 744: all get needed, remainder
  // weighted toward the hosts with headroom.
  const PolicyContext context = make_context(
      4 * 190.0,
      {make_job({214.0, 214.0, 214.0, 214.0}, {152.0, 152.0, 220.0, 220.0})});
  const rm::PowerAllocation allocation =
      JobAdaptivePolicy{}.allocate(context);
  EXPECT_GE(allocation.job_host_caps[0][2], 220.0);
  EXPECT_GE(allocation.job_host_caps[0][0], 152.0);
  EXPECT_LE(allocation.total_watts(), 760.0 + 0.5);
}

TEST(JobAdaptiveTest, ViolationScalesDownProportionally) {
  const PolicyContext context = make_context(
      2 * 190.0, {make_job({230.0, 230.0}, {200.0, 220.0})});
  const rm::PowerAllocation allocation =
      JobAdaptivePolicy{}.allocate(context);
  const double scale0 = allocation.job_host_caps[0][0] / 200.0;
  const double scale1 = allocation.job_host_caps[0][1] / 220.0;
  EXPECT_NEAR(scale0, scale1, 1e-9);
  EXPECT_NEAR(allocation.total_watts(), 380.0, 0.5);
}

TEST(JobAdaptiveTest, FloorAwareScalingStaysWithinBudget) {
  // Waiting hosts already at the floor cannot be scaled down; critical
  // hosts must absorb the whole reduction.
  const PolicyContext context = make_context(
      4 * 160.0,
      {make_job({214.0, 214.0, 214.0, 214.0}, {152.0, 152.0, 220.0, 220.0})});
  const rm::PowerAllocation allocation =
      JobAdaptivePolicy{}.allocate(context);
  EXPECT_LE(allocation.total_watts(), 640.0 + 0.5);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 152.0);
  EXPECT_LT(allocation.job_host_caps[0][2], 220.0);
}

TEST(JobAdaptiveTest, NoCrossJobSharing) {
  // Job 0 needs almost nothing; job 1 is starving. JobAdaptive cannot
  // move job 0's surplus to job 1.
  const PolicyContext context = make_context(
      4 * 190.0,
      {make_job(2, 214.0, 152.0), make_job(2, 230.0, 230.0)});
  const rm::PowerAllocation allocation =
      JobAdaptivePolicy{}.allocate(context);
  // Job 1 is stuck at its own uniform budget of 2 * 190.
  EXPECT_LE(allocation.job_total_watts(1), 2 * 190.0 + 0.5);
}

TEST(MixedAdaptiveTest, SharesAcrossJobs) {
  // Same setup as JobAdaptiveTest.NoCrossJobSharing: MixedAdaptive moves
  // job 0's surplus into job 1.
  const PolicyContext context = make_context(
      4 * 190.0,
      {make_job(2, 214.0, 152.0), make_job(2, 230.0, 230.0)});
  const rm::PowerAllocation allocation =
      MixedAdaptivePolicy{}.allocate(context);
  EXPECT_GT(allocation.job_total_watts(1), 2 * 190.0 + 10.0);
  EXPECT_LE(allocation.total_watts(),
            context.system_budget_watts + 0.5);
}

TEST(MixedAdaptiveTest, Step2TrimsToNeeded) {
  const PolicyContext context =
      make_context(2 * 220.0, {make_job(2, 214.0, 180.0)});
  const rm::PowerAllocation allocation =
      MixedAdaptivePolicy{}.allocate(context);
  // Needed 180 + surplus weighted by (180 - 136) pushes caps above 180
  // but the sum stays within budget.
  EXPECT_GE(allocation.job_host_caps[0][0], 180.0);
  EXPECT_LE(allocation.total_watts(), 440.0 + 0.5);
}

TEST(MixedAdaptiveTest, Step3RefillsUnderProvisionedHosts) {
  // Share 180 < needed 220 for job 1; job 0 deallocates 180-152=28/host.
  const PolicyContext context = make_context(
      4 * 180.0,
      {make_job(2, 214.0, 152.0), make_job(2, 230.0, 220.0)});
  const rm::PowerAllocation allocation =
      MixedAdaptivePolicy{}.allocate(context);
  EXPECT_NEAR(allocation.job_host_caps[0][0], 152.0, 1e-6);
  // Job 1 hosts got refilled toward 220: 180 + 28 = 208 each.
  EXPECT_NEAR(allocation.job_host_caps[1][0], 208.0, 0.5);
}

TEST(MixedAdaptiveTest, Step4SurplusFollowsHeadroomWeights) {
  // Everyone's needs met with surplus left; hosts further above the
  // package floor get proportionally more.
  const PolicyContext context = make_context(
      4 * 230.0,
      {make_job(2, 214.0, 160.0), make_job(2, 230.0, 220.0)});
  const rm::PowerAllocation allocation =
      MixedAdaptivePolicy{}.allocate(context);
  const double gain0 = allocation.job_host_caps[0][0] - 160.0;
  const double gain1 = allocation.job_host_caps[1][0] - 220.0;
  // Weights: 160-136=24 vs 220-136=84 (before TDP clamping).
  EXPECT_GT(gain1, gain0);
}

TEST(MixedAdaptiveTest, AblationFlagsDisableSteps) {
  const PolicyContext context = make_context(
      4 * 180.0,
      {make_job(2, 214.0, 152.0), make_job(2, 230.0, 220.0)});
  MixedAdaptiveOptions options;
  options.redistribute_deallocated = false;
  options.distribute_surplus = false;
  const rm::PowerAllocation allocation =
      MixedAdaptivePolicy{options}.allocate(context);
  // Without steps 3 and 4, job 1 hosts stay at the uniform share.
  EXPECT_NEAR(allocation.job_host_caps[1][0], 180.0, 1e-6);
}

TEST(PolicyContextTest, ValidationCatchesBadInputs) {
  PolicyContext context = make_context(100.0, {make_job(2, 214.0, 190.0)});
  context.system_budget_watts = 0.0;
  EXPECT_THROW(context.validate(), ps::InvalidArgument);
  context = make_context(100.0, {});
  EXPECT_THROW(context.validate(), ps::InvalidArgument);
  context = make_context(100.0, {make_job(2, 214.0, 190.0)});
  context.jobs[0].monitor.host_average_power_watts.pop_back();
  EXPECT_THROW(context.validate(), ps::InvalidArgument);
  context = make_context(100.0, {make_job(2, 214.0, 190.0, 500.0)});
  EXPECT_THROW(context.validate(), ps::InvalidArgument);
}

TEST(PolicyContextTest, PerJobTdpOverridesContextFallback) {
  PolicyContext context = make_context(
      1000.0, {make_job(1, 500.0, 190.0), make_job(1, 500.0, 190.0)});
  context.jobs[0].node_tdp_watts = 200.0;  // job 1 stays at 0 = unknown
  EXPECT_DOUBLE_EQ(context.job_tdp_watts(0), 200.0);
  EXPECT_DOUBLE_EQ(context.job_tdp_watts(1), context.node_tdp_watts);
  EXPECT_THROW(static_cast<void>(context.job_tdp_watts(2)),
               ps::InvalidArgument);
  context.jobs[0].node_tdp_watts = -1.0;
  EXPECT_THROW(context.validate(), ps::InvalidArgument);
  // A per-job TDP below the job's settable floor is inconsistent.
  context.jobs[0].node_tdp_watts = 100.0;
  EXPECT_THROW(context.validate(), ps::InvalidArgument);
}

// Regression for the heterogeneous-cluster case: the old code clamped
// every job at one cluster-wide TDP, so a low-TDP job could be granted
// more than its hardware can apply (and a high-TDP job could be starved
// down to the low part's ceiling).
TEST(PolicyContextTest, HeterogeneousTdpClampsEachJobAtItsOwnCeiling) {
  PolicyContext context = make_context(
      2 * 400.0, {make_job(1, 500.0, 190.0, 100.0),
                  make_job(1, 500.0, 190.0, 100.0)});
  context.jobs[0].node_tdp_watts = 200.0;
  context.jobs[1].node_tdp_watts = 300.0;
  const rm::PowerAllocation allocation = StaticCapsPolicy{}.allocate(context);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 200.0);
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[1][0], 300.0);
  // Order-swap invariance: the clamp follows the job, not its index.
  std::swap(context.jobs[0], context.jobs[1]);
  const rm::PowerAllocation swapped = StaticCapsPolicy{}.allocate(context);
  EXPECT_DOUBLE_EQ(swapped.job_host_caps[0][0], 300.0);
  EXPECT_DOUBLE_EQ(swapped.job_host_caps[1][0], 200.0);
}

TEST(PrecharacterizedTest, HeterogeneousTdpClampsHungryJob) {
  PolicyContext context =
      make_context(1000.0, {make_job(1, 500.0, 190.0, 100.0)});
  context.jobs[0].node_tdp_watts = 220.0;
  const rm::PowerAllocation allocation =
      PrecharacterizedPolicy{}.allocate(context);
  // Observed 500 W demand clamps at the job's own 220 W ceiling, not the
  // context-wide 256 W.
  EXPECT_DOUBLE_EQ(allocation.job_host_caps[0][0], 220.0);
}

TEST(PolicyContextTest, UniformShareDividesBudget) {
  const PolicyContext context = make_context(
      900.0, {make_job(2, 214.0, 190.0), make_job(1, 214.0, 190.0)});
  EXPECT_EQ(context.total_hosts(), 3u);
  EXPECT_DOUBLE_EQ(context.uniform_share_watts(), 300.0);
}

}  // namespace
}  // namespace ps::core
