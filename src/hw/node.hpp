#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/gpu_model.hpp"
#include "hw/perf_model.hpp"
#include "hw/power_model.hpp"
#include "hw/quartz_spec.hpp"
#include "hw/rapl.hpp"

namespace ps::hw {

using NodeId = std::uint32_t;

/// How a node-level cap is divided between its two packages.
enum class CapSplitPolicy {
  kEven,             ///< Half each (what naive tooling does).
  kEfficiencyAware,  ///< Equalize package frequencies: the leakier
                     ///< package receives proportionally more budget.
};

struct NodeParams {
  SocketPowerParams power{};
  RooflineParams roofline{};
  ActivityModel activity{};
  double tdp_per_socket_watts = QuartzSpec::kTdpPerSocketW;
  double min_rapl_per_socket_watts = QuartzSpec::kMinRaplPerSocketW;
  /// DRAM plane power: always drawn, not governed by the package limits.
  /// Node-level caps and reported node power include it.
  double dram_watts = QuartzSpec::kDramPowerPerNodeW;
  CapSplitPolicy cap_split = CapSplitPolicy::kEven;

  bool operator==(const NodeParams&) const = default;
};

/// Outcome of running (or previewing) one phase on a node.
struct PhaseResult {
  double seconds = 0.0;
  double frequency_ghz = 0.0;
  double power_watts = 0.0;  ///< Node power (both sockets) during the phase.
  double gflops = 0.0;       ///< Achieved node GFLOP/s.
  double energy_joules = 0.0;
  double cpu_utilization = 0.0;
  double mem_utilization = 0.0;
};

/// A simulated dual-socket compute node: RAPL domains + power model +
/// roofline, with a self-consistent frequency solution.
///
/// Frequency under a cap depends on activity, and activity depends on the
/// pipeline utilizations at that frequency, so run_compute() solves the
/// fixed point (a few iterations; the map is a contraction because activity
/// varies weakly with frequency).
class NodeModel {
 public:
  NodeModel(NodeId id, double eta, const NodeParams& params = {});

  /// Heterogeneous packages: the two sockets of one node rarely leak
  /// identically; under a shared node cap the leakier one sets the pace
  /// unless the cap split compensates (see CapSplitPolicy).
  NodeModel(NodeId id, double eta_socket0, double eta_socket1,
            const NodeParams& params = {});

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  /// Mean of the package efficiency multipliers.
  [[nodiscard]] double eta() const noexcept { return eta_; }
  [[nodiscard]] double eta_of(std::size_t socket) const;

  /// Programs the package RAPL limits from a node-level cap: the DRAM
  /// plane cannot be capped, so the packages absorb the whole reduction,
  /// divided per the configured CapSplitPolicy. Returns the node cap
  /// actually applied (after firmware clamping/quantization), including
  /// the DRAM share.
  double set_power_cap(double node_watts);
  [[nodiscard]] double power_cap() const;
  /// Highest settable node power (2 x package TDP + DRAM).
  [[nodiscard]] double tdp() const noexcept;
  /// Lowest settable node power cap (paper: 2 x 68 W, plus DRAM).
  [[nodiscard]] double min_cap() const noexcept;

  /// Runs a compute phase moving `gigabytes` at `intensity` FLOPs/byte and
  /// accrues the consumed energy into the RAPL counters.
  PhaseResult run_compute(double gigabytes, double intensity,
                          VectorWidth width);

  /// The solution run_compute would use under the node's current limits,
  /// without accruing energy. Memoized: the solver only re-runs when an
  /// input (phase shape, a package limit, the frequency cap) changed
  /// since the last call, so iteration-stable callers pay one fixed-point
  /// solve instead of one per iteration. The key is compared against the
  /// live register state, so limits written behind the node's back
  /// (PlatformIO pokes packages directly) still invalidate correctly.
  /// The returned reference stays valid until the next solve.
  ///
  /// On a memo miss, a `twin` may supply the answer instead of the
  /// solver: its cached solution is copied when its memo key equals this
  /// node's live key (same phase, same package limits, same frequency
  /// cap) and same_solver(*twin) holds. The solver is a pure function of
  /// those inputs, so the copy is the solution this node would compute,
  /// bit for bit. Nodes of a homogeneous job thus solve once per distinct
  /// host rather than once per host.
  const PhaseResult& compute_solution(double gigabytes, double intensity,
                                      VectorWidth width,
                                      const NodeModel* twin = nullptr);

  /// Solver identity: true when `other` computes every compute, poll and
  /// preview solution exactly as this node does for the same inputs,
  /// i.e. NodeParams, both package etas and the frequency cap are equal
  /// (exact double comparison). The package limits, the RAPL counters
  /// and the GPUs are not part of it: the limits are solver inputs that
  /// each memo key carries, and the rest never reaches the solver.
  [[nodiscard]] bool same_solver(const NodeModel& other) const noexcept;

  /// Accrues a phase previously obtained from compute_solution() into the
  /// RAPL/DRAM energy counters (run_compute == compute_solution + this).
  void accrue_phase(const PhaseResult& phase);

  /// Busy-polls at a barrier for `seconds`, accruing energy. The poll
  /// power/frequency solution is memoized the same way as
  /// compute_solution() (it depends only on the limits), and on a memo
  /// miss a `twin` whose poll memo holds this node's live key, with
  /// same_solver(*twin), lends its solution exactly as there.
  PhaseResult run_poll(double seconds, const NodeModel* twin = nullptr);

  /// DVFS control: an upper bound on the core frequency, independent of
  /// the RAPL limits (the OS cpufreq / P-state interface). The effective
  /// frequency is min(frequency under the power cap, this cap). Clamped
  /// to the part's [f_min, f_max]; returns the applied value.
  double set_frequency_cap(double ghz);
  [[nodiscard]] double frequency_cap() const noexcept {
    return frequency_cap_ghz_;
  }

  /// Pure query: what run_compute would report under `node_cap_watts`
  /// without changing any state. Used by agents to search cap settings.
  /// The node's current frequency cap applies.
  [[nodiscard]] PhaseResult preview_compute(double gigabytes, double intensity,
                                            VectorWidth width,
                                            double node_cap_watts) const;

  /// Same, with an explicit frequency cap (for DVFS searches).
  [[nodiscard]] PhaseResult preview_compute(double gigabytes, double intensity,
                                            VectorWidth width,
                                            double node_cap_watts,
                                            double frequency_cap_ghz) const;

  /// Node power while polling under `node_cap_watts`.
  [[nodiscard]] double poll_power(double node_cap_watts) const;

  /// Total node energy read back through the (wrapping) RAPL counters.
  [[nodiscard]] double read_energy_joules();

  /// --- Optional GPU devices (heterogeneous nodes) -----------------------
  ///
  /// GPUs form a second, independently capped power domain: their limits,
  /// draw, and energy are reported separately from the CPU/package numbers
  /// above, so CPU-only callers see bit-identical behavior whether or not
  /// a node could host GPUs.

  /// Attaches one more GPU device to this node and returns it.
  GpuModel& attach_gpu(const GpuParams& params = {});
  [[nodiscard]] std::size_t gpu_count() const noexcept { return gpus_.size(); }
  [[nodiscard]] GpuModel& gpu(std::size_t index);
  [[nodiscard]] const GpuModel& gpu(std::size_t index) const;

  /// Programs a node-level GPU cap, split evenly across the devices.
  /// Returns the total actually applied (after per-device clamping).
  double set_gpu_power_cap(double watts);
  /// Sum of the per-device GPU limits (0 when the node has no GPUs).
  [[nodiscard]] double gpu_power_cap() const noexcept;
  /// Lowest / highest settable node-level GPU cap (sums over devices).
  [[nodiscard]] double gpu_min_cap() const noexcept;
  [[nodiscard]] double gpu_tdp() const noexcept;
  /// Total GPU energy (monotone NVML-style counters, summed).
  [[nodiscard]] double read_gpu_energy_joules() const noexcept;

  [[nodiscard]] const NodeParams& params() const noexcept { return params_; }
  [[nodiscard]] const RooflineModel& roofline() const noexcept {
    return roofline_;
  }
  [[nodiscard]] RaplPackageDomain& package(std::size_t socket);

 private:
  /// Solves the frequency/activity fixed point for a compute phase under a
  /// per-socket cap (using the node's current frequency cap, or an
  /// explicit one).
  [[nodiscard]] PhaseResult solve_compute(double gigabytes, double intensity,
                                          VectorWidth width,
                                          std::span<const double> socket_caps)
      const;
  [[nodiscard]] PhaseResult solve_compute(double gigabytes, double intensity,
                                          VectorWidth width,
                                          std::span<const double> socket_caps,
                                          double frequency_cap_ghz) const;

  /// Splits node energy between the DRAM plane and the RAPL counters.
  void accrue_energy(double node_joules, double seconds);

  /// One cap per package; nodes are dual-socket by construction.
  using SocketCaps = std::array<double, QuartzSpec::kSocketsPerNode>;

  /// Per-package cap split for a node-level cap, honoring cap_split.
  [[nodiscard]] SocketCaps split_node_cap(double node_watts) const;

  /// Memo key: every input that reaches the compute solver. Caps are
  /// sampled from the live package registers on every lookup rather than
  /// tracked by invalidation hooks, so out-of-band limit writes miss the
  /// cache instead of serving a stale solution.
  struct SolveKey {
    double gigabytes = 0.0;
    double intensity = 0.0;
    VectorWidth width = VectorWidth::kScalar;
    double socket_caps[2] = {0.0, 0.0};
    double frequency_cap_ghz = 0.0;

    bool operator==(const SolveKey&) const = default;
  };

  NodeId id_;
  double eta_;
  std::vector<double> etas_;
  NodeParams params_;
  SocketPowerModel power_model_;
  RooflineModel roofline_;
  std::vector<RaplPackageDomain> packages_;
  std::vector<GpuModel> gpus_;
  double dram_energy_joules_ = 0.0;
  double frequency_cap_ghz_ = 0.0;  ///< Set to f_max by the constructor.

  /// Solve memoization (see compute_solution). Written only by the
  /// non-const run paths: shared, const-accessed clones (the sweep's
  /// per-cell cloning sources) never mutate it concurrently.
  bool compute_cache_valid_ = false;
  SolveKey compute_key_;
  PhaseResult compute_cached_;
  bool poll_cache_valid_ = false;
  SolveKey poll_key_;
  PhaseResult poll_cached_;  ///< seconds/energy unset (scaled per call).
};

}  // namespace ps::hw
