#pragma once

#include <string>
#include <vector>

#include "hw/node.hpp"
#include "kernel/workload.hpp"
#include "sim/sla.hpp"
#include "util/rng.hpp"

namespace ps::sim {

/// Per-host outcome of one bulk-synchronous iteration.
struct HostIterationResult {
  hw::NodeId node = 0;
  bool waiting_host = false;
  double busy_seconds = 0.0;
  double poll_seconds = 0.0;
  double energy_joules = 0.0;
  double gflop = 0.0;
  double frequency_ghz = 0.0;
  /// Mean node power over the whole iteration (busy + poll). Includes the
  /// GPU share on heterogeneous hosts.
  double average_power_watts = 0.0;

  /// GPU-domain telemetry; all zero on hosts without a GPU phase.
  double gpu_busy_seconds = 0.0;
  double gpu_energy_joules = 0.0;  ///< Included in energy_joules.
  double gpu_gflop = 0.0;          ///< Included in gflop.
  double gpu_clock_ghz = 0.0;      ///< Slowest device clock in the phase.
  /// Mean GPU power over the whole iteration (kernels + idle tail).
  double gpu_average_power_watts = 0.0;
};

/// Outcome of one bulk-synchronous iteration of a job.
struct IterationResult {
  double iteration_seconds = 0.0;  ///< Critical path (max host busy time).
  double total_energy_joules = 0.0;
  double total_gflop = 0.0;
  double average_node_power_watts = 0.0;
  std::size_t critical_host_index = 0;
  std::vector<HostIterationResult> hosts;
};

/// Accumulated telemetry over a job's lifetime.
struct JobTotals {
  std::size_t iterations = 0;
  double elapsed_seconds = 0.0;
  double energy_joules = 0.0;
  double gflop = 0.0;

  [[nodiscard]] double average_power_watts(std::size_t hosts) const;
  [[nodiscard]] double gflops_per_watt(std::size_t hosts) const;
  [[nodiscard]] double energy_delay_product() const;
};

/// Optional per-iteration measurement noise (OS jitter, NUMA placement,
/// ...). Applied multiplicatively to host busy times; keeps the simulated
/// 95% confidence intervals (paper Fig. 8 error bars) from collapsing to
/// zero width.
struct NoiseParams {
  double time_sigma = 0.0;  ///< Relative sigma of busy-time jitter.
};

/// Bulk-synchronous execution of one workload on a fixed set of hosts.
///
/// Mirrors the paper's Fig. 2: every host runs the common work; hosts on
/// the critical path run `imbalance` times as much; the rest busy-poll at
/// the barrier until the slowest host finishes. Host power caps may be
/// changed between iterations (by runtime agents or RM policies).
class JobSimulation {
 public:
  /// `hosts` are borrowed from a Cluster and must outlive the simulation.
  /// The first round(waiting_fraction * size) hosts are the waiting hosts.
  JobSimulation(std::string name, std::vector<hw::NodeModel*> hosts,
                const kernel::WorkloadConfig& config,
                const NoiseParams& noise = {},
                util::Rng noise_rng = util::Rng(0x7075f));

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const kernel::WorkloadConfig& workload() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t host_count() const noexcept {
    return hosts_.size();
  }
  [[nodiscard]] hw::NodeModel& host(std::size_t index);
  [[nodiscard]] const hw::NodeModel& host(std::size_t index) const;
  [[nodiscard]] bool is_waiting_host(std::size_t index) const;
  [[nodiscard]] std::size_t waiting_host_count() const noexcept {
    return waiting_hosts_;
  }
  /// Data moved per iteration by this host (common work, or imbalance x).
  [[nodiscard]] double host_gigabytes(std::size_t index) const;

  /// Switches the job to a new phase of execution (paper future work:
  /// applications with multiple phases of differing design
  /// characteristics). Waiting-host roles are re-derived; telemetry
  /// totals continue to accumulate.
  void set_workload(const kernel::WorkloadConfig& config);

  void set_host_cap(std::size_t index, double watts);
  [[nodiscard]] double host_cap(std::size_t index) const;
  /// Sum of all host caps — the job's currently allocated power. Includes
  /// the GPU-domain caps of hosts that run a GPU phase.
  [[nodiscard]] double total_allocated_power() const;

  /// True when the workload offloads a GPU phase and this host has GPUs.
  [[nodiscard]] bool host_has_gpu_phase(std::size_t index) const;
  /// True when any host runs a GPU phase (the job spans two domains).
  [[nodiscard]] bool has_gpu_domain() const;
  /// GPU-domain cap of one host (split evenly across its devices).
  void set_host_gpu_cap(std::size_t index, double watts);
  [[nodiscard]] double host_gpu_cap(std::size_t index) const;
  [[nodiscard]] double host_gpu_min_cap(std::size_t index) const;
  [[nodiscard]] double host_gpu_tdp(std::size_t index) const;
  /// Pure query: the host's GPU-phase duration under a node-level GPU cap.
  [[nodiscard]] double preview_gpu_seconds(std::size_t index,
                                           double gpu_cap_watts) const;

  /// Marks a host dead (or revives it): a failed host runs no work,
  /// draws no power, and never sets the critical path. At least one host
  /// must stay alive.
  void set_host_failed(std::size_t index, bool failed);
  [[nodiscard]] bool host_failed(std::size_t index) const;
  [[nodiscard]] std::size_t active_host_count() const noexcept;

  /// Multiplies the host's busy time by `factor` (>= 1) — a straggler.
  /// 1.0 restores full speed.
  void set_host_slowdown(std::size_t index, double factor);
  [[nodiscard]] double host_slowdown(std::size_t index) const;

  /// Runs one bulk-synchronous iteration, accruing telemetry and RAPL
  /// energy on every host.
  ///
  /// One structure-of-arrays pass for every job: one memoized solve
  /// lookup per host refreshes per-host columns (seconds, power, GFLOP,
  /// frequency), then busy-time jitter, the GPU phase (two-domain jobs
  /// only: device kernels, and the CPU busy-polling until they finish),
  /// the critical-path reduction, and the barrier-poll/energy accounting
  /// each sweep the columns in host order.
  IterationResult run_iteration();

  [[nodiscard]] const JobTotals& totals() const noexcept { return totals_; }
  void reset_totals() noexcept { totals_ = {}; }

  /// Multi-tenant service class (default kStandard — single-tenant runs
  /// never set it, keeping every legacy code path and wire byte
  /// untouched). Degradation under power scarcity sheds lower classes
  /// toward their floors first.
  [[nodiscard]] SlaClass sla_class() const noexcept { return sla_class_; }
  void set_sla_class(SlaClass sla_class) noexcept { sla_class_ = sla_class; }

 private:
  /// round(waiting_fraction * size) of the current workload, leaving at
  /// least one critical host.
  [[nodiscard]] std::size_t derive_waiting_hosts() const;

  std::string name_;
  std::vector<hw::NodeModel*> hosts_;
  kernel::WorkloadConfig config_;
  std::size_t waiting_hosts_ = 0;
  NoiseParams noise_;
  util::Rng noise_rng_;
  JobTotals totals_;
  std::vector<bool> failed_;
  std::vector<double> slowdown_;
  SlaClass sla_class_ = SlaClass::kStandard;

  /// Structure-of-arrays columns, one entry per host, refreshed every
  /// iteration from the memoized node solves (kept as members so the
  /// buffers are allocated once per simulation, not per iteration).
  std::vector<double> soa_seconds_;
  std::vector<double> soa_power_;
  std::vector<double> soa_gflop_;
  std::vector<double> soa_frequency_;
  std::vector<double> soa_busy_;
};

}  // namespace ps::sim
