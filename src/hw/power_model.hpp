#pragma once

namespace ps::hw {

/// Parameters of the socket power model
///
///   P(f, a, eta) = P_idle + eta * P_dyn_max * a * (f / f_max)^3
///
/// where `a` in [0, 1] is the workload activity factor (how hard the core
/// and memory pipelines are driven), `eta` is the per-part manufacturing
/// efficiency multiplier (1.0 = nominal; larger = leakier part needing more
/// power for the same frequency), and the cubic captures the classic
/// V^2 * f dynamic-power scaling with voltage tracking frequency.
/// Defaults are calibrated jointly against the paper's Fig. 4 (uncapped
/// node power peaks ~230 W incl. a 16 W DRAM plane => idle + dynamic =
/// 107 W per package at activity 1) and Fig. 6 (medium-cluster nodes
/// reach ~1.8 GHz under a 70 W package cap => 51.6 + 55.4*(1.8/2.6)^3
/// ~= 70).
struct SocketPowerParams {
  double idle_watts = 51.6;           ///< Uncore + idle power per package.
  double max_dynamic_watts = 55.4;  ///< Dynamic power at f_max, a=1, eta=1.
  double min_frequency_ghz = 1.2;
  double max_frequency_ghz = 2.6;
  double exponent = 3.0;

  bool operator==(const SocketPowerParams&) const = default;
};

/// Analytic socket power model with an exact cap-to-frequency inversion.
///
/// This substitutes for the silicon behavior RAPL firmware controls: given
/// a package power limit, the part runs at the highest frequency whose
/// modeled power respects the limit.
class SocketPowerModel {
 public:
  SocketPowerModel() = default;
  explicit SocketPowerModel(const SocketPowerParams& params);

  /// Power in watts at the given frequency / activity / efficiency.
  [[nodiscard]] double power(double frequency_ghz, double activity,
                             double eta) const;

  /// Highest frequency (clamped to [f_min, f_max]) whose power does not
  /// exceed `cap_watts`. If even f_min exceeds the cap, returns f_min:
  /// like real silicon, the part cannot run below its floor, so a cap
  /// below the floor power is simply not met.
  [[nodiscard]] double frequency_at_cap(double cap_watts, double activity,
                                        double eta) const;

  /// Power actually drawn under `cap_watts` (power at frequency_at_cap).
  [[nodiscard]] double power_at_cap(double cap_watts, double activity,
                                    double eta) const;

  [[nodiscard]] const SocketPowerParams& params() const noexcept {
    return params_;
  }

 private:
  SocketPowerParams params_{};
};

}  // namespace ps::hw
