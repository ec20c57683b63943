#pragma once

#include <cstdint>
#include <span>

#include "obs/obs.hpp"
#include "rm/allocation.hpp"
#include "sim/job_sim.hpp"

namespace ps::rm {

/// Running account of budget excursions: intervals where programmed power
/// exceeded the (possibly just-revised) system budget beyond the RAPL
/// quantization tolerance. `last_time_to_safe_seconds` is the length of
/// the most recently closed excursion — the paper-level robustness metric:
/// how long after a budget drop the cluster kept drawing above it.
struct ExcursionTelemetry {
  std::size_t excursions = 0;              ///< Closed excursion episodes.
  double over_budget_watt_seconds = 0.0;   ///< ∫ max(0, programmed − budget) dt.
  double worst_over_watts = 0.0;           ///< Peak instantaneous overshoot.
  double last_time_to_safe_seconds = 0.0;  ///< Duration of the latest episode.
  double max_time_to_safe_seconds = 0.0;   ///< Longest episode seen.
  bool in_excursion = false;               ///< Currently above budget.
  double current_excursion_seconds = 0.0;  ///< Age of the open episode.
};

/// The resource manager's power-enforcement arm: owns the system-wide
/// power budget and programs per-host RAPL caps from a policy's
/// PowerAllocation (SLURM power-management analogue, Section III).
/// The budget is mutable: renegotiated revisions arrive via set_budget
/// with a strictly-monotone epoch, so a stale revision (replayed message,
/// resurrected snapshot) can never roll the budget back.
class SystemPowerManager {
 public:
  explicit SystemPowerManager(double system_budget_watts);

  [[nodiscard]] double budget_watts() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t budget_epoch() const noexcept {
    return budget_epoch_;
  }

  /// Adopts a renegotiated budget. Returns false (and changes nothing)
  /// when `epoch` does not advance past the current budget epoch — the
  /// caller saw a stale revision. Throws on a non-positive budget.
  bool set_budget(double budget_watts, std::uint64_t epoch);

  /// Applies the allocation's caps to the jobs' hosts. Shapes must match
  /// (one cap vector per job, one cap per host). If `enforce_budget` is
  /// true, throws ps::InvalidArgument when the allocation exceeds the
  /// budget (beyond RAPL quantization tolerance) — a site would reject
  /// such a policy output; system-unaware policies are applied with
  /// enforcement off, as the paper does for Precharacterized.
  void apply(std::span<sim::JobSimulation* const> jobs,
             const PowerAllocation& allocation,
             bool enforce_budget = true) const;

  /// Programs one job's caps: one CPU cap per host, and either no GPU
  /// caps or one per host (written on the hosts that carry a GPU). The
  /// per-job write apply() makes; a job runtime programs a reply with it.
  static void program_job(sim::JobSimulation& job,
                          std::span<const double> caps,
                          std::span<const double> gpu_caps);

  /// Accounts `elapsed_seconds` of running with `programmed_watts`
  /// total caps against the current budget, opening/extending an
  /// excursion when above budget + tolerance and closing it when back
  /// under. Call with elapsed 0 after reprogramming to close an episode
  /// at the reprogram instant.
  void observe_programmed(double programmed_watts, std::size_t host_count,
                          double elapsed_seconds);

  [[nodiscard]] const ExcursionTelemetry& excursions() const noexcept {
    return excursions_;
  }

  /// Sum of currently programmed caps across the jobs' hosts.
  [[nodiscard]] static double total_allocated_watts(
      std::span<sim::JobSimulation* const> jobs);

  /// True if programmed caps fit the budget (+ quantization tolerance).
  [[nodiscard]] bool allocation_fits(
      std::span<sim::JobSimulation* const> jobs) const;

  /// Attaches the observability seam: registers the manager's metric
  /// instruments ("rm.applies", budget adopt/stale counters, the "rm.budget_watts" gauge and the
  /// "rm.excursions" account) on the given registry. Inert when the
  /// seam carries no registry.
  void set_observer(const obs::Observability& obs);

 private:
  double budget_;
  std::uint64_t budget_epoch_ = 0;
  ExcursionTelemetry excursions_;
  /// Cached instruments (stable addresses owned by the registry); null
  /// when unobserved so the hot paths stay branch-plus-nothing.
  obs::Counter* applies_metric_ = nullptr;
  obs::Counter* budget_adopted_metric_ = nullptr;
  obs::Counter* budget_stale_metric_ = nullptr;
  obs::Counter* excursions_metric_ = nullptr;
  obs::Gauge* budget_gauge_ = nullptr;
  obs::Gauge* time_to_safe_gauge_ = nullptr;
};

}  // namespace ps::rm
