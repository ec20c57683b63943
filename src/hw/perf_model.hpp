#pragma once

#include <cstddef>
#include <string_view>

namespace ps::hw {

/// SIMD register width used by the kernel's floating-point loops.
enum class VectorWidth { kScalar, kXmm128, kYmm256 };

[[nodiscard]] std::string_view to_string(VectorWidth width) noexcept;

/// Double-precision FLOPs retired per core per cycle at the given width
/// (two FMA ports, 2 FLOPs per FMA per lane on the modeled Broadwell part).
[[nodiscard]] double flops_per_cycle(VectorWidth width) noexcept;

/// Parameters of the node performance roofline.
struct RooflineParams {
  std::size_t active_cores = 34;
  double max_frequency_ghz = 2.6;
  /// Sustained node DRAM bandwidth at max frequency, GB/s.
  double memory_bandwidth_gbs = 150.0;
  /// Fraction of peak memory bandwidth still available at zero core
  /// frequency (uncore clocks are mostly independent of core DVFS, so
  /// memory-bound codes lose little performance when cores slow down).
  double bandwidth_frequency_floor = 0.70;

  bool operator==(const RooflineParams&) const = default;
};

/// Time and pipeline utilization of one compute phase.
struct PhaseProfile {
  double seconds = 0.0;
  double cpu_utilization = 0.0;  ///< Fraction of phase the FPUs are busy.
  double mem_utilization = 0.0;  ///< Fraction of phase memory is busy.
  double gflops = 0.0;           ///< Achieved GFLOP/s during the phase.
};

/// Node-level roofline performance model (Williams et al. [11]) with
/// frequency dependence: compute throughput scales linearly with core
/// frequency; memory bandwidth scales weakly (see
/// RooflineParams::bandwidth_frequency_floor).
///
/// A unit of kernel work is described by the bytes it moves and its
/// computational intensity I (FLOPs/byte), matching Choi et al.'s
/// energy-roofline benchmark [10] that the paper's kernel derives from.
class RooflineModel {
 public:
  RooflineModel() = default;
  explicit RooflineModel(const RooflineParams& params);

  /// Peak node compute throughput in GFLOP/s at `frequency_ghz`.
  [[nodiscard]] double peak_gflops(VectorWidth width,
                                   double frequency_ghz) const;

  /// Node memory bandwidth in GB/s at `frequency_ghz`.
  [[nodiscard]] double memory_bandwidth_gbs(double frequency_ghz) const;

  /// Intensity at which compute and memory times are equal (the roofline
  /// ridge point) at the given frequency, in FLOPs/byte.
  [[nodiscard]] double ridge_intensity(VectorWidth width,
                                       double frequency_ghz) const;

  /// Profiles a phase that moves `gigabytes` of data at computational
  /// intensity `intensity` (FLOPs/byte; zero means no floating point work).
  /// Compute and memory traffic overlap perfectly (classic roofline).
  [[nodiscard]] PhaseProfile profile(double gigabytes, double intensity,
                                     VectorWidth width,
                                     double frequency_ghz) const;

  [[nodiscard]] const RooflineParams& params() const noexcept {
    return params_;
  }

 private:
  RooflineParams params_{};
};

/// Activity-factor model mapping pipeline utilizations to the [0, 1]
/// activity input of SocketPowerModel. Calibrated so that (a) power peaks
/// near the roofline ridge where both pipelines saturate (paper Fig. 4
/// peaks at 4-8 FLOPs/byte) and (b) busy-polling at an MPI barrier draws
/// nearly as much power as streaming work (Fig. 4 is insensitive to the
/// waiting-rank fraction).
struct ActivityModel {
  double base = 0.673;        ///< Clock tree, fetch/decode, L1/L2 traffic.
  double cpu_weight = 0.148;  ///< Added when the FPUs are saturated.
  double mem_weight = 0.179;  ///< Added when DRAM is saturated.
  double poll_activity = 0.85;  ///< Busy-wait at a barrier (spin loop).
  /// Relative FPU power at narrower SIMD widths.
  double scalar_cpu_scale = 0.70;
  double xmm_cpu_scale = 0.85;

  /// Activity for a compute phase with the given utilizations.
  [[nodiscard]] double compute_activity(double cpu_utilization,
                                        double mem_utilization,
                                        VectorWidth width) const;

  bool operator==(const ActivityModel&) const = default;
};

}  // namespace ps::hw
