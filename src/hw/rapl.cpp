#include "hw/rapl.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ps::hw {

namespace {
// MSR_RAPL_POWER_UNIT typical Broadwell encoding: power unit 2^-3 W,
// energy unit 2^-14 J, time unit 2^-10 s.
constexpr std::uint64_t kPowerUnitExp = 3;
constexpr std::uint64_t kEnergyUnitExp = 14;
constexpr std::uint64_t kTimeUnitExp = 10;
constexpr std::uint64_t kRaplUnitValue =
    kPowerUnitExp | (kEnergyUnitExp << 8) | (kTimeUnitExp << 16);

constexpr std::uint64_t kPowerLimitFieldMask = 0x7fffULL;  // bits 14:0
constexpr std::uint64_t kPowerLimitEnableBit = 1ULL << 15;
constexpr std::uint64_t kPowerLimitClampBit = 1ULL << 16;

std::uint64_t encode_power(double watts, double unit_watts) {
  const double raw = std::round(watts / unit_watts);
  return static_cast<std::uint64_t>(std::max(raw, 0.0)) &
         kPowerLimitFieldMask;
}
}  // namespace

RaplPackageDomain::RaplPackageDomain(double tdp_watts, double min_watts)
    : tdp_watts_(tdp_watts), min_watts_(min_watts) {
  PS_REQUIRE(tdp_watts > 0.0, "TDP must be positive");
  PS_REQUIRE(min_watts > 0.0 && min_watts <= tdp_watts,
             "min RAPL limit must be in (0, TDP]");
  msrs_.hw_store(msr::kRaplPowerUnit, kRaplUnitValue);
  // Decoded once: the register is read-only (see rapl.hpp). Each unit is
  // 2^-exponent, the power exponent in bits 3:0, the energy one in 12:8.
  const std::uint64_t units = msrs_.hw_load(msr::kRaplPowerUnit);
  power_unit_watts_ = 1.0 / static_cast<double>(1ULL << (units & 0xf));
  lsb_per_joule_ = static_cast<double>(1ULL << ((units >> 8) & 0x1f));
  energy_unit_joules_ = 1.0 / lsb_per_joule_;
  limit_slot_ = msrs_.hw_slot(msr::kPkgPowerLimit);
  energy_slot_ = msrs_.hw_slot(msr::kPkgEnergyStatus);
  const std::uint64_t info =
      encode_power(tdp_watts_, power_unit_watts_) |
      (encode_power(min_watts_, power_unit_watts_) << 16);
  msrs_.hw_store(msr::kPkgPowerInfo, info);
  set_power_limit(tdp_watts_);
}

double RaplPackageDomain::set_power_limit(double watts) {
  PS_REQUIRE(std::isfinite(watts), "power limit must be finite");
  const double clamped =
      std::clamp(watts, min_watts_, 1.5 * tdp_watts_);
  const std::uint64_t encoded = encode_power(clamped, power_unit_watts_);
  msrs_.write(msr::kPkgPowerLimit,
              encoded | kPowerLimitEnableBit | kPowerLimitClampBit);
  return power_limit();
}

double RaplPackageDomain::power_limit() const {
  const std::uint64_t raw = msrs_.hw_load_slot(limit_slot_);
  return static_cast<double>(raw & kPowerLimitFieldMask) * power_unit_watts_;
}

void RaplPackageDomain::accumulate_energy(double joules) {
  PS_REQUIRE(joules >= 0.0, "energy cannot decrease");
  // Scaling by a power of two is exact, so this is joules / unit.
  fractional_energy_ += joules * lsb_per_joule_;
  const double whole = std::floor(fractional_energy_);
  fractional_energy_ -= whole;
  const auto counter =
      static_cast<std::uint32_t>(msrs_.hw_load_slot(energy_slot_));
  // 32-bit wrap-around is intentional: real PKG_ENERGY_STATUS wraps.
  const std::uint32_t next =
      counter + static_cast<std::uint32_t>(
                    static_cast<std::uint64_t>(whole) & 0xffffffffULL);
  msrs_.hw_store_slot(energy_slot_, next);
}

std::uint32_t RaplPackageDomain::read_energy_counter() const {
  return static_cast<std::uint32_t>(msrs_.read(msr::kPkgEnergyStatus));
}

double RaplPackageDomain::read_energy_joules() {
  const std::uint32_t counter = read_energy_counter();
  const std::uint32_t delta = counter - last_counter_;  // modular arithmetic
  last_counter_ = counter;
  unwrapped_joules_ += static_cast<double>(delta) * energy_unit_joules_;
  return unwrapped_joules_;
}

}  // namespace ps::hw
