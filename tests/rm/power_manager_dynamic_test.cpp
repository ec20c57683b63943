// Dynamic-budget behavior of the RM power arm: epoch-guarded budget
// renegotiation, excursion telemetry, and the RAPL quantization-tolerance
// boundary.
#include <gtest/gtest.h>

#include <string>

#include "rm/power_manager.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace ps::rm {
namespace {

std::vector<hw::NodeModel*> hosts_of(sim::Cluster& cluster,
                                     std::size_t begin, std::size_t count) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = begin; i < begin + count; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

class DynamicPowerManagerTest : public ::testing::Test {
 protected:
  DynamicPowerManagerTest()
      : cluster_(4),
        job_a_("a", hosts_of(cluster_, 0, 2), kernel::WorkloadConfig{}),
        job_b_("b", hosts_of(cluster_, 2, 2), kernel::WorkloadConfig{}) {}

  sim::Cluster cluster_;
  sim::JobSimulation job_a_;
  sim::JobSimulation job_b_;
  std::vector<sim::JobSimulation*> jobs_{&job_a_, &job_b_};
};

TEST_F(DynamicPowerManagerTest, SetBudgetAdvancesOnlyWithNewerEpoch) {
  SystemPowerManager manager(800.0);
  EXPECT_EQ(manager.budget_epoch(), 0u);
  EXPECT_TRUE(manager.set_budget(700.0, 1));
  EXPECT_DOUBLE_EQ(manager.budget_watts(), 700.0);
  EXPECT_EQ(manager.budget_epoch(), 1u);
  // Stale and duplicate epochs change nothing.
  EXPECT_FALSE(manager.set_budget(900.0, 1));
  EXPECT_FALSE(manager.set_budget(900.0, 0));
  EXPECT_DOUBLE_EQ(manager.budget_watts(), 700.0);
  EXPECT_TRUE(manager.set_budget(650.0, 5));  // epochs may skip
  EXPECT_EQ(manager.budget_epoch(), 5u);
  EXPECT_THROW(static_cast<void>(manager.set_budget(0.0, 9)),
               InvalidArgument);
}

TEST_F(DynamicPowerManagerTest, ApplyToleranceBoundaryIsPerHost) {
  // 4 hosts -> 2 W of RAPL quantization slack. 780 W of caps on a 778.5 W
  // budget is 1.5 W over: accepted. On a 777.5 W budget it is 2.5 W over:
  // rejected. The boundary itself (exactly tolerance over) is accepted.
  PowerAllocation allocation;
  allocation.job_host_caps = {{190.0, 200.0}, {180.0, 210.0}};  // 780 W
  EXPECT_NO_THROW(SystemPowerManager(778.5).apply(jobs_, allocation));
  EXPECT_THROW(SystemPowerManager(777.5).apply(jobs_, allocation),
               InvalidArgument);
  EXPECT_NO_THROW(SystemPowerManager(778.0).apply(jobs_, allocation));
}

TEST_F(DynamicPowerManagerTest, ApplyShapeMismatchMessagesNameTheAxis) {
  const SystemPowerManager manager(800.0);
  PowerAllocation wrong_jobs;
  wrong_jobs.job_host_caps = {{190.0, 200.0}};
  try {
    manager.apply(jobs_, wrong_jobs);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("number of jobs"),
              std::string::npos);
  }
  PowerAllocation wrong_hosts;
  wrong_hosts.job_host_caps = {{190.0}, {180.0, 210.0}};
  try {
    manager.apply(jobs_, wrong_hosts);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("number of hosts"),
              std::string::npos);
  }
}

TEST(ExcursionTelemetryTest, IntegratesOverBudgetTime) {
  SystemPowerManager manager(1'000.0);
  // 2 hosts -> 1 W tolerance. 1'100 W programmed for 2 s: 100 W over.
  manager.observe_programmed(1'100.0, 2, 2.0);
  EXPECT_TRUE(manager.excursions().in_excursion);
  EXPECT_DOUBLE_EQ(manager.excursions().over_budget_watt_seconds, 200.0);
  EXPECT_DOUBLE_EQ(manager.excursions().worst_over_watts, 100.0);
  manager.observe_programmed(1'050.0, 2, 1.0);  // still 50 W over
  EXPECT_DOUBLE_EQ(manager.excursions().over_budget_watt_seconds, 250.0);
  EXPECT_DOUBLE_EQ(manager.excursions().current_excursion_seconds, 3.0);
  // Reprogrammed under budget: the episode closes at this instant.
  manager.observe_programmed(900.0, 2, 0.0);
  const ExcursionTelemetry& telemetry = manager.excursions();
  EXPECT_FALSE(telemetry.in_excursion);
  EXPECT_EQ(telemetry.excursions, 1u);
  EXPECT_DOUBLE_EQ(telemetry.last_time_to_safe_seconds, 3.0);
  EXPECT_DOUBLE_EQ(telemetry.max_time_to_safe_seconds, 3.0);
  EXPECT_DOUBLE_EQ(telemetry.worst_over_watts, 100.0);
}

TEST(ExcursionTelemetryTest, ToleranceKeepsQuantizationOutOfTelemetry) {
  SystemPowerManager manager(1'000.0);
  manager.observe_programmed(1'000.9, 2, 5.0);  // within 1 W tolerance
  EXPECT_FALSE(manager.excursions().in_excursion);
  EXPECT_DOUBLE_EQ(manager.excursions().over_budget_watt_seconds, 0.0);
}

TEST(ExcursionTelemetryTest, BudgetDropOpensExcursionOnOldCaps) {
  SystemPowerManager manager(1'000.0);
  manager.observe_programmed(950.0, 2, 1.0);
  EXPECT_FALSE(manager.excursions().in_excursion);
  ASSERT_TRUE(manager.set_budget(700.0, 1));  // brownout under live caps
  manager.observe_programmed(950.0, 2, 0.5);
  EXPECT_TRUE(manager.excursions().in_excursion);
  EXPECT_DOUBLE_EQ(manager.excursions().worst_over_watts, 250.0);
  manager.observe_programmed(690.0, 2, 0.0);
  EXPECT_EQ(manager.excursions().excursions, 1u);
  EXPECT_DOUBLE_EQ(manager.excursions().last_time_to_safe_seconds, 0.5);
}

TEST(ExcursionTelemetryTest, RejectsNegativeElapsed) {
  SystemPowerManager manager(1'000.0);
  EXPECT_THROW(manager.observe_programmed(900.0, 2, -1.0),
               InvalidArgument);
}

}  // namespace
}  // namespace ps::rm
