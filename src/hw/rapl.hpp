#pragma once

#include <cstddef>
#include <cstdint>

#include "hw/msr.hpp"

namespace ps::hw {

/// RAPL package power domain implemented over a simulated MSR file.
///
/// Encodes power limits and energy in the fixed-point units advertised by
/// MSR_RAPL_POWER_UNIT (power in 1/8 W steps, energy in ~61 uJ steps) and
/// models the 32-bit wrapping package energy counter, so software layered
/// on top must handle exactly the quirks real RAPL software handles.
///
/// The units are fixed at construction: MSR_RAPL_POWER_UNIT is read-only
/// (write mask 0) and the domain hands out no mutable view of its MSR
/// file, so the constructor decodes them once. It also finds the limit
/// and energy registers once: the hot paths (power_limit,
/// accumulate_energy) reach them by slot, with no search, and accrue
/// energy by multiplying by 2^k rather than dividing by the 2^-k unit
/// (the same double for every finite input).
class RaplPackageDomain {
 public:
  /// `tdp_watts` populates PKG_POWER_INFO's thermal spec power field;
  /// `min_watts` populates its minimum power field. The initial power
  /// limit is the TDP with clamping enabled.
  RaplPackageDomain(double tdp_watts, double min_watts);

  /// Sets the package power limit. Values are clamped to the
  /// [min, 1.5*TDP] range the firmware accepts, then quantized to RAPL
  /// power units. Returns the limit that was actually programmed.
  double set_power_limit(double watts);

  /// Currently programmed power limit (after quantization), in watts.
  [[nodiscard]] double power_limit() const;

  [[nodiscard]] double tdp() const noexcept { return tdp_watts_; }
  [[nodiscard]] double min_limit() const noexcept { return min_watts_; }

  /// Hardware-side: accrues consumed energy into the wrapping counter.
  void accumulate_energy(double joules);

  /// Software-side: reads the raw 32-bit counter (wraps ~every 73 kJ).
  [[nodiscard]] std::uint32_t read_energy_counter() const;

  /// Software-side: total energy in joules, reconstructed across counter
  /// wraps. Call at least once per wrap period for correct results (the
  /// paper's runtime samples far faster than that).
  [[nodiscard]] double read_energy_joules();

  /// Joules represented by one LSB of the energy counter.
  [[nodiscard]] double energy_unit_joules() const noexcept {
    return energy_unit_joules_;
  }
  /// Watts represented by one LSB of the power-limit field.
  [[nodiscard]] double power_unit_watts() const noexcept {
    return power_unit_watts_;
  }

  /// Accrued energy not yet in the counter, in counter LSBs ([0, 1)).
  [[nodiscard]] double fractional_energy_lsb() const noexcept {
    return fractional_energy_;
  }

  /// Read-only view of the registers (software reads through msr-safe).
  [[nodiscard]] const MsrFile& msr_file() const noexcept { return msrs_; }

 private:
  double tdp_watts_;
  double min_watts_;
  MsrFile msrs_;
  double power_unit_watts_ = 0.0;    ///< Decoded from MSR_RAPL_POWER_UNIT.
  double energy_unit_joules_ = 0.0;  ///< Decoded from MSR_RAPL_POWER_UNIT.
  double lsb_per_joule_ = 0.0;       ///< 1 / energy_unit_joules_, exact.
  std::size_t limit_slot_ = 0;       ///< MSR_PKG_POWER_LIMIT's slot.
  std::size_t energy_slot_ = 0;      ///< MSR_PKG_ENERGY_STATUS's slot.
  double fractional_energy_ = 0.0;  ///< Sub-LSB residue awaiting the counter.
  std::uint32_t last_counter_ = 0;
  double unwrapped_joules_ = 0.0;
};

}  // namespace ps::hw
