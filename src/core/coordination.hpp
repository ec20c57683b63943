#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/budget_governor.hpp"
#include "core/endpoint.hpp"
#include "core/policy.hpp"
#include "obs/obs.hpp"
#include "rm/power_manager.hpp"
#include "runtime/power_balancer_agent.hpp"
#include "sim/failures.hpp"
#include "sim/job_sim.hpp"

namespace ps::core {

/// Sums over the iterations a JobStep ran, added in the order they ran.
struct IterationTotals {
  double elapsed_seconds = 0.0;
  double energy_joules = 0.0;
  double total_gflop = 0.0;
};

/// The job side of the execution-time protocol (Section VIII): one job's
/// runtime between RM steps. It runs an epoch's iterations, keeps the
/// live demand estimate (per domain, a running max of observed power
/// seeded at the settable floor), reports a SampleMessage, and programs
/// the caps of the reply. CoordinationLoop holds one per job in memory;
/// net::CoordinatedAgent holds one and trades its samples over a socket —
/// so both send the RM the same telemetry and program the same caps.
class JobStep {
 public:
  JobStep(sim::JobSimulation& job, const runtime::BalancerOptions& balancer);

  /// Runs `iterations` iterations, adding each one's time, energy and
  /// work to `totals` and ratcheting the demand estimates.
  void run_epoch(std::size_t iterations, IterationTotals& totals);

  /// The job's live telemetry: its envelope, the observed demand and the
  /// needed power as it runs now — the balancer's per-host search,
  /// re-derived per domain against the iteration critical path for a
  /// GPU-domain job. A failed host needs and demands nothing above its
  /// floors; its ratchets fall here.
  [[nodiscard]] SampleMessage sample(std::uint64_t sequence);

  /// Programs a reply's caps, GPU caps included.
  void apply(const PolicyMessage& reply);

 private:
  sim::JobSimulation& job_;
  runtime::BalancerOptions balancer_;
  std::vector<double> demand_watts_;
  /// Empty for CPU-only jobs; 0 on hosts without a GPU phase.
  std::vector<double> gpu_demand_watts_;
};

/// Knobs of the execution-time coordination protocol.
struct CoordinationOptions {
  /// Iterations between RM re-allocations.
  std::size_t epoch_iterations = 5;
  /// The policy the RM re-runs each epoch.
  PolicyKind policy = PolicyKind::kMixedAdaptive;
  /// Cap movement (watts, max over hosts) below which the loop is
  /// considered converged.
  double convergence_watts = 1.0;
  runtime::BalancerOptions balancer{};
  /// Observability seam. With a trace sink attached the loop emits the
  /// "coord" event stream (revision/failure/caps/epoch/reclaim events on
  /// the epoch logical clock — deterministic for a seeded run); with a
  /// metrics registry, the RM instruments register under "rm.*". Inert
  /// by default.
  obs::Observability obs{};
};

/// One epoch's record in the coordination telemetry.
struct EpochRecord {
  std::size_t epoch = 0;
  double allocated_watts = 0.0;
  double system_power_watts = 0.0;   ///< Mean draw during the epoch.
  double elapsed_seconds = 0.0;      ///< Max job elapsed time this epoch.
  double energy_joules = 0.0;
  double max_cap_change_watts = 0.0; ///< Largest per-host cap move.
  double budget_watts = 0.0;         ///< Budget in force during the epoch.
  std::uint64_t budget_epoch = 0;    ///< Renegotiation epoch in force.
  bool emergency_clamped = false;    ///< RM step took the clamp path.
};

/// One node failure's reclamation trace: when the failure was applied,
/// and when the policy had squeezed the dead host down to the settable
/// floor (everything above the floor is back in the pool).
struct ReclaimRecord {
  std::size_t event_epoch = 0;
  std::size_t job = 0;
  std::size_t host = 0;
  bool reclaimed = false;
  std::size_t reclaim_epoch = 0;
  double watts_reclaimed = 0.0;  ///< Pre-failure cap minus the floor cap.
};

/// Telemetry for a failure-aware run.
struct FailureTelemetry {
  std::vector<ReclaimRecord> reclaims;
  /// Epochs where the policy output exceeded the budget and was skipped
  /// (last caps were kept instead). Empty on a healthy run.
  std::vector<std::size_t> budget_violation_epochs;
  std::size_t events_applied = 0;

  /// Mean epochs from node failure to full reclamation (only over
  /// failures that did reclaim).
  [[nodiscard]] double mean_epochs_to_reclaim() const;
};

/// Telemetry for a dynamic-budget run.
struct BudgetTelemetry {
  std::size_t revisions_applied = 0;
  std::size_t revisions_stale = 0;    ///< Rejected: epoch did not advance.
  std::size_t emergency_clamps = 0;   ///< RM steps that took the clamp path.
  /// Loop epochs whose programmed caps exceeded the (just-revised)
  /// budget — each is one control period of bounded excursion.
  std::vector<std::size_t> excursion_epochs;
  rm::ExcursionTelemetry excursions;  ///< Integral / time-to-safe account.
  double final_budget_watts = 0.0;
  std::uint64_t final_budget_epoch = 0;
};

/// Outcome of a coordinated run.
struct CoordinationResult {
  std::vector<EpochRecord> epochs;
  double elapsed_seconds = 0.0;  ///< Sum over epochs of the epoch max.
  double energy_joules = 0.0;
  double total_gflop = 0.0;
  bool converged = false;
  std::size_t convergence_epoch = 0;  ///< First epoch below the threshold.

  [[nodiscard]] double gflops_per_watt() const;
};

/// The paper's proposed-but-unbuilt protocol (Section VIII): instead of
/// pre-characterizing workloads offline, the resource manager and the job
/// runtime exchange information *during execution*. Every epoch:
///
///   1. each job's runtime reports live telemetry: the observed per-host
///      power (a running demand estimate) and the per-host needed power
///      (re-derived by the balancer's search under the job's current
///      conditions);
///   2. the RM re-runs the configured policy on that live data and
///      reprograms the caps, subject to the system budget.
///
/// Starting from a uniform distribution, the loop converges to the same
/// steady state the pre-characterized policy computes — and unlike the
/// static emulation, it re-converges when jobs change phase.
class CoordinationLoop {
 public:
  CoordinationLoop(double system_budget_watts,
                   const CoordinationOptions& options = {});

  /// Runs `total_iterations` bulk-synchronous iterations on every job
  /// (jobs proceed in lockstep epochs). Jobs must outlive the call.
  CoordinationResult run(std::span<sim::JobSimulation* const> jobs,
                         std::size_t total_iterations);

  /// The full protocol: failures AND budget revisions replay together.
  /// `events` (sorted by epoch) apply at the start of their epochs: a
  /// node failure pins the dead host at its floors from the job's next
  /// sample (the freed watts go to the survivors), a straggler stretches
  /// a host's busy time until recovery; reclaim times and over-budget
  /// policy outputs land in `failure_telemetry`. `revisions` go through
  /// one RevisionSchedule, as a daemon's do: each is adopted at the start
  /// of its `at_epoch` (stale epochs rejected); the caps programmed at
  /// the previous RM step keep running for that one epoch — the bounded
  /// excursion — and the RM step at the epoch's end re-allocates under
  /// the revised budget, falling back to the emergency clamp when the
  /// policy output and the last caps both exceed it. Invariants (Σcaps ≤
  /// budget + tolerance, cap bounds, epoch monotonicity, watt
  /// conservation on reclaim) are checked every epoch via
  /// core::invariants. After the run, budget_watts() reflects the last
  /// adopted revision.
  CoordinationResult run_dynamic(
      std::span<sim::JobSimulation* const> jobs,
      std::size_t total_iterations,
      std::span<const sim::FailureEvent> events,
      std::span<const BudgetRevision> revisions,
      FailureTelemetry* failure_telemetry = nullptr,
      BudgetTelemetry* budget_telemetry = nullptr);

  [[nodiscard]] double budget_watts() const noexcept { return budget_; }
  [[nodiscard]] const CoordinationOptions& options() const noexcept {
    return options_;
  }

 private:
  double budget_;
  CoordinationOptions options_;
};

}  // namespace ps::core
