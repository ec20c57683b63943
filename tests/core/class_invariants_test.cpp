// Multi-tenant invariants: per-class budget conservation (degradation
// re-divides watts, never mints them) and no class inversion (a lower
// class never holds discretionary watts a starved higher class needs).
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/invariants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::core::invariants {
namespace {

class ClassInvariantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_mode(Mode::kFatal);
  }
  void TearDown() override {
    set_mode(Mode::kCount);
    reset();
  }
};

ClassAllocationView view(std::size_t rank, double allocated, double floor,
                         double guaranteed, double tolerance = 0.5) {
  ClassAllocationView v;
  v.rank = rank;
  v.allocated_watts = allocated;
  v.floor_watts = floor;
  v.guaranteed_watts = guaranteed;
  v.tolerance_watts = tolerance;
  return v;
}

TEST_F(ClassInvariantsTest, ConservationHoldsWhenSumsMatch) {
  const std::vector<ClassAllocationView> jobs = {
      view(2, 220.0, 152.0, 220.0), view(0, 180.0, 152.0, 220.0)};
  EXPECT_NO_THROW(check_class_budget_conserved(jobs, 400.0, 400.0, "test"));
  EXPECT_EQ(stats().violations, 0u);
}

TEST_F(ClassInvariantsTest, ConservationTripsOnMintedWatts) {
  // The class sums claim 30 W more than the programmed total: minted.
  const std::vector<ClassAllocationView> jobs = {
      view(2, 230.0, 152.0, 220.0), view(0, 200.0, 152.0, 220.0)};
  EXPECT_THROW(check_class_budget_conserved(jobs, 400.0, 400.0, "test"),
               ps::InvalidState);
  EXPECT_EQ(stats().violations, 1u);
  EXPECT_NE(last_violation().find("test"), std::string::npos);
}

TEST_F(ClassInvariantsTest, ConservationTripsWhenTotalExceedsBudget) {
  const std::vector<ClassAllocationView> jobs = {
      view(2, 300.0, 152.0, 300.0), view(0, 300.0, 152.0, 300.0)};
  EXPECT_THROW(check_class_budget_conserved(jobs, 600.0, 400.0, "test"),
               ps::InvalidState);
}

TEST_F(ClassInvariantsTest, FloorsMayExceedTheBudget) {
  // Floors are physical: when they alone exceed the budget, programming
  // the floors is correct, not a violation.
  const std::vector<ClassAllocationView> jobs = {
      view(2, 152.0, 152.0, 220.0), view(0, 152.0, 152.0, 220.0)};
  EXPECT_NO_THROW(check_class_budget_conserved(jobs, 304.0, 200.0, "test"));
  EXPECT_EQ(stats().violations, 0u);
}

TEST_F(ClassInvariantsTest, NoInversionWhenGuaranteesAreMet) {
  const std::vector<ClassAllocationView> jobs = {
      view(2, 220.0, 152.0, 220.0), view(0, 219.0, 152.0, 220.0)};
  EXPECT_NO_THROW(check_no_class_inversion(jobs, "test"));
  EXPECT_EQ(stats().violations, 0u);
}

TEST_F(ClassInvariantsTest, StarvedHighClassWithLowClassAtFloorIsLegal) {
  const std::vector<ClassAllocationView> jobs = {
      view(2, 180.0, 152.0, 220.0), view(0, 152.0, 152.0, 220.0)};
  EXPECT_NO_THROW(check_no_class_inversion(jobs, "test"));
}

TEST_F(ClassInvariantsTest, InversionTripsWhenLowClassHoldsDiscretionary) {
  // The rank-2 job is starved (180 < 220) while the rank-0 job sits
  // 28 W above its floor: those watts belong to the higher class.
  const std::vector<ClassAllocationView> jobs = {
      view(2, 180.0, 152.0, 220.0), view(0, 180.0, 152.0, 220.0)};
  EXPECT_THROW(check_no_class_inversion(jobs, "test"), ps::InvalidState);
  EXPECT_NE(last_violation().find("inversion"), std::string::npos);
}

TEST_F(ClassInvariantsTest, EqualRankJobsNeverInvertEachOther) {
  // Proportional sharing within one class starves both a little; no
  // cross-class relationship exists, so nothing trips.
  const std::vector<ClassAllocationView> jobs = {
      view(1, 180.0, 152.0, 220.0), view(1, 200.0, 152.0, 220.0)};
  EXPECT_NO_THROW(check_no_class_inversion(jobs, "test"));
  EXPECT_EQ(stats().violations, 0u);
}

TEST_F(ClassInvariantsTest, CountModeRecordsInsteadOfThrowing) {
  set_mode(Mode::kCount);
  const std::vector<ClassAllocationView> jobs = {
      view(2, 180.0, 152.0, 220.0), view(0, 180.0, 152.0, 220.0)};
  EXPECT_NO_THROW(check_no_class_inversion(jobs, "test"));
  EXPECT_EQ(stats().violations, 1u);
}

/// The original quadratic form of check_no_class_inversion, transcribed
/// literally: for each starved job, every holder ranked below it. The
/// production check must agree with it on verdict and message.
void quadratic_class_inversion_oracle(std::span<const ClassAllocationView> jobs,
                                      std::string_view where) {
  for (const ClassAllocationView& starved : jobs) {
    if (starved.allocated_watts >=
        starved.guaranteed_watts - starved.tolerance_watts) {
      continue;  // This job's guarantee is met; it inverts nothing.
    }
    for (const ClassAllocationView& holder : jobs) {
      if (holder.rank >= starved.rank) {
        continue;
      }
      if (holder.allocated_watts >
          holder.floor_watts + holder.tolerance_watts) {
        std::ostringstream message;
        message << where << ": class inversion — a rank-" << starved.rank
                << " job holds " << starved.allocated_watts
                << " W (guaranteed " << starved.guaranteed_watts
                << " W) while a rank-" << holder.rank << " job holds "
                << holder.allocated_watts << " W above its floor "
                << holder.floor_watts << " W";
        check(false, message.str());
        return;
      }
    }
  }
  check(true, {});
}

/// A random class view set: 1–3 distinct ranks, and allocations drawn
/// from the boundary cases (exactly at floor + tolerance, exactly at
/// guaranteed - tolerance) as well as clear holders and starved jobs.
std::vector<ClassAllocationView> random_views(util::Rng& rng) {
  std::vector<std::size_t> ranks = {0, 1, 2, 3};
  rng.shuffle(std::span<std::size_t>(ranks));
  ranks.resize(1 + rng.uniform_index(3));
  std::vector<ClassAllocationView> jobs(1 + rng.uniform_index(24));
  for (ClassAllocationView& job : jobs) {
    const double hosts = static_cast<double>(1 + rng.uniform_index(4));
    job.rank = ranks[rng.uniform_index(ranks.size())];
    job.floor_watts = 152.0 * hosts;
    job.tolerance_watts = 0.5 * hosts;
    job.guaranteed_watts = job.floor_watts + rng.uniform(0.0, 100.0) * hosts;
    switch (rng.uniform_index(7)) {
      case 0:  // at its floor
        job.allocated_watts = job.floor_watts;
        break;
      case 1:  // exactly on the holder boundary: not a holder
        job.allocated_watts = job.floor_watts + job.tolerance_watts;
        break;
      case 2:  // exactly on the starvation boundary: not starved
        job.allocated_watts = job.guaranteed_watts - job.tolerance_watts;
        break;
      case 3:  // starved, possibly holding above its floor too
        job.allocated_watts =
            rng.uniform(job.floor_watts, job.guaranteed_watts);
        break;
      case 4:  // guarantee met
        job.allocated_watts = job.guaranteed_watts;
        break;
      case 5:  // a clear holder
        job.allocated_watts = job.floor_watts + 1.0 + rng.uniform(0.0, 60.0);
        break;
      default:  // rarely, garbage
        job.allocated_watts = rng.uniform() < 0.1
                                  ? std::numeric_limits<double>::quiet_NaN()
                                  : job.floor_watts - 1.0;
        break;
    }
  }
  return jobs;
}

TEST_F(ClassInvariantsTest, LinearInversionCheckMatchesQuadraticOracle) {
  set_mode(Mode::kCount);
  util::Rng rng(0xC1A55);
  std::size_t violating = 0;
  constexpr std::size_t kCases = 4000;
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::vector<ClassAllocationView> jobs = random_views(rng);
    reset();
    quadratic_class_inversion_oracle(jobs, "oracle");
    const Stats expected = stats();
    const std::string expected_message = last_violation();
    reset();
    check_no_class_inversion(jobs, "oracle");
    ASSERT_EQ(stats().checks, expected.checks) << "case " << c;
    ASSERT_EQ(stats().violations, expected.violations) << "case " << c;
    ASSERT_EQ(last_violation(), expected_message) << "case " << c;
    violating += expected.violations;
  }
  // Both verdicts must be well represented, or the agreement is vacuous.
  EXPECT_GT(violating, kCases / 10);
  EXPECT_LT(violating, kCases - kCases / 10);
}

}  // namespace
}  // namespace ps::core::invariants
