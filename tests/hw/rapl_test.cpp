#include "hw/rapl.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::hw {
namespace {

constexpr double kTdp = 120.0;
constexpr double kMin = 68.0;

TEST(RaplTest, InitialLimitIsTdp) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_DOUBLE_EQ(rapl.power_limit(), kTdp);
}

TEST(RaplTest, UnitsMatchBroadwellEncoding) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_DOUBLE_EQ(rapl.power_unit_watts(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(rapl.energy_unit_joules(), 1.0 / 16384.0);
}

TEST(RaplTest, SetLimitQuantizesToPowerUnits) {
  RaplPackageDomain rapl(kTdp, kMin);
  const double applied = rapl.set_power_limit(100.07);
  // Nearest 1/8 W step.
  EXPECT_DOUBLE_EQ(applied, 100.125);
  EXPECT_DOUBLE_EQ(rapl.power_limit(), 100.125);
}

TEST(RaplTest, LimitClampsToFirmwareRange) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_DOUBLE_EQ(rapl.set_power_limit(10.0), kMin);
  EXPECT_DOUBLE_EQ(rapl.set_power_limit(1000.0), 1.5 * kTdp);
}

TEST(RaplTest, RejectsNonFiniteLimit) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_THROW(static_cast<void>(rapl.set_power_limit(
                   std::numeric_limits<double>::quiet_NaN())),
               ps::InvalidArgument);
}

TEST(RaplTest, RejectsBadConstruction) {
  EXPECT_THROW(RaplPackageDomain(0.0, 1.0), ps::InvalidArgument);
  EXPECT_THROW(RaplPackageDomain(100.0, 0.0), ps::InvalidArgument);
  EXPECT_THROW(RaplPackageDomain(100.0, 120.0), ps::InvalidArgument);
}

TEST(RaplTest, EnergyAccumulatesThroughCounter) {
  RaplPackageDomain rapl(kTdp, kMin);
  rapl.accumulate_energy(100.0);
  EXPECT_NEAR(rapl.read_energy_joules(), 100.0, 1e-3);
  rapl.accumulate_energy(50.0);
  EXPECT_NEAR(rapl.read_energy_joules(), 150.0, 1e-3);
}

TEST(RaplTest, SubUnitEnergyIsNotLost) {
  RaplPackageDomain rapl(kTdp, kMin);
  // Each increment is far below one counter LSB (61 uJ).
  for (int i = 0; i < 100000; ++i) {
    rapl.accumulate_energy(1e-5);
  }
  EXPECT_NEAR(rapl.read_energy_joules(), 1.0, 1e-3);
}

TEST(RaplTest, CounterWrapsAt32Bits) {
  RaplPackageDomain rapl(kTdp, kMin);
  // 2^32 energy units is ~262 kJ; accumulate more than that.
  const double wrap_joules =
      4294967296.0 * rapl.energy_unit_joules();
  rapl.accumulate_energy(wrap_joules * 0.75);
  EXPECT_NEAR(rapl.read_energy_joules(), wrap_joules * 0.75, 1.0);
  rapl.accumulate_energy(wrap_joules * 0.5);  // wraps the raw counter
  // Software reconstruction across the wrap stays monotone.
  EXPECT_NEAR(rapl.read_energy_joules(), wrap_joules * 1.25, 1.0);
}

TEST(RaplTest, NegativeEnergyRejected) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_THROW(rapl.accumulate_energy(-1.0), ps::InvalidArgument);
}

TEST(RaplTest, PowerInfoEncodesTdpAndMin) {
  RaplPackageDomain rapl(kTdp, kMin);
  const std::uint64_t info = rapl.msr_file().read(msr::kPkgPowerInfo);
  const double unit = rapl.power_unit_watts();
  EXPECT_DOUBLE_EQ(static_cast<double>(info & 0x7fff) * unit, kTdp);
  EXPECT_DOUBLE_EQ(static_cast<double>((info >> 16) & 0x7fff) * unit, kMin);
}

TEST(RaplTest, LimitSurvivesMsrRoundTrip) {
  RaplPackageDomain rapl(kTdp, kMin);
  rapl.set_power_limit(90.0);
  const std::uint64_t raw = rapl.msr_file().read(msr::kPkgPowerLimit);
  EXPECT_EQ(raw & 0x7fffULL,
            static_cast<std::uint64_t>(90.0 / rapl.power_unit_watts()));
  EXPECT_NE(raw & (1ULL << 15), 0u);  // enable bit
  EXPECT_NE(raw & (1ULL << 16), 0u);  // clamp bit
}

/// The counter and residue after each accrual, accrued by dividing by
/// the decoded energy unit: the definition the domain must keep.
struct DividedCounter {
  double unit = 0.0;
  double fraction = 0.0;
  std::uint32_t counter = 0;

  void accrue(double joules) {
    fraction += joules / unit;
    const double whole = std::floor(fraction);
    fraction -= whole;
    counter += static_cast<std::uint32_t>(static_cast<std::uint64_t>(whole) &
                                          0xffffffffULL);
  }
};

TEST(RaplTest, EnergyAccrualMatchesTheDivisionFormulaBitForBit) {
  RaplPackageDomain rapl(kTdp, kMin);
  DividedCounter reference{.unit = rapl.energy_unit_joules()};
  util::Rng rng(0xe6e7);
  const auto expect_same = [](const RaplPackageDomain& domain,
                               const DividedCounter& expected) {
    ASSERT_EQ(domain.read_energy_counter(), expected.counter);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(domain.fractional_energy_lsb()),
              std::bit_cast<std::uint64_t>(expected.fraction));
  };
  // Magnitudes from the smallest subnormal to ~10 kJ: sub-LSB polls,
  // whole iterations and counter wraps.
  const double edges[] = {std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(), 1e-300,
                          1e-9, 0.0};
  for (const double joules : edges) {
    rapl.accumulate_energy(joules);
    reference.accrue(joules);
    expect_same(rapl, reference);
  }
  for (int i = 0; i < 20000; ++i) {
    const double joules =
        rng.uniform() * std::pow(10.0, rng.uniform(-12.0, 4.0));
    rapl.accumulate_energy(joules);
    reference.accrue(joules);
    expect_same(rapl, reference);
  }
  // A copied domain keeps accruing into its own registers.
  RaplPackageDomain copy = rapl;
  DividedCounter copy_reference = reference;
  for (int i = 0; i < 1000; ++i) {
    const double joules = rng.uniform(0.0, 50.0);
    copy.accumulate_energy(joules);
    copy_reference.accrue(joules);
  }
  expect_same(copy, copy_reference);
  expect_same(rapl, reference);
}

}  // namespace
}  // namespace ps::hw
