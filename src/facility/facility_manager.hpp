#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/budget_governor.hpp"
#include "core/control_round.hpp"
#include "core/policy.hpp"
#include "obs/obs.hpp"
#include "rm/job.hpp"
#include "rm/power_manager.hpp"
#include "rm/scheduler.hpp"
#include "sim/cluster.hpp"
#include "sim/job_sim.hpp"
#include "sim/sla.hpp"
#include "util/rng.hpp"

namespace ps::facility {

/// One job submission in a facility workload trace.
struct FacilityJobSpec {
  double arrival_hours = 0.0;
  rm::JobRequest request{};
  std::size_t iterations = 100;  ///< Job length in bulk-sync iterations.
  /// User-supplied walltime estimate (the "requested walltime" of a real
  /// batch system); EASY backfill trusts it, as real schedulers do.
  double estimated_hours = 1.0;
  /// Uncapped (ideal) duration in hours — the denominator of the SLA
  /// slowdown metric. 0 (the legacy default) disables slowdown
  /// accounting for this job; the job's class rides on request.sla_class.
  double ideal_hours = 0.0;
};

/// Parameters of the synthetic facility workload trace (Poisson arrivals
/// over heatmap-grid workloads — the demand side of the paper's Fig. 1).
struct JobTraceOptions {
  double horizon_hours = 24.0 * 7.0;
  double arrivals_per_hour = 3.0;
  std::size_t min_nodes = 20;
  std::size_t max_nodes = 200;
  /// Job lengths are drawn in wall-clock hours (log-uniform) and
  /// converted to iteration counts at the nominal iteration time.
  double min_duration_hours = 0.5;
  double max_duration_hours = 12.0;
  double nominal_iteration_seconds = 0.05;

  /// --- Multi-tenant class mix -------------------------------------------
  /// Fractions of arrivals drawn latency_critical / best_effort (the
  /// remainder is standard). Both zero (the default) draws nothing extra
  /// from the rng, keeping single-class traces byte-identical to the
  /// pre-SLA generator.
  double latency_critical_fraction = 0.0;
  double best_effort_fraction = 0.0;

  /// --- Time-varying demand ----------------------------------------------
  /// Diurnal arrival modulation: rate(t) = base · (1 + A·sin(2πt/24 − π/2))
  /// — trough at midnight, peak at noon. 0 keeps arrivals homogeneous
  /// (and the rng stream identical to the legacy generator).
  double diurnal_amplitude = 0.0;
  /// Flash crowds: `burst_count` bursts at seeded uniform times, each
  /// adding `burst_rate_multiplier × base` arrivals/hour at its center,
  /// falling off linearly over `burst_duration_hours`.
  std::size_t burst_count = 0;
  double burst_rate_multiplier = 0.0;
  double burst_duration_hours = 1.0;
};

/// Synthesizes a facility workload trace. Degenerate-parameter semantics
/// are explicit: a zero arrival rate or zero horizon is a valid request
/// for *no* work and returns an empty trace; negative or non-finite
/// rates/horizons, zero/negative job durations, and malformed class
/// fractions throw ps::InvalidArgument.
[[nodiscard]] std::vector<FacilityJobSpec> generate_job_trace(
    util::Rng& rng, const JobTraceOptions& options);

/// Knobs of the facility simulation.
struct FacilityOptions {
  double step_hours = 0.1;
  double horizon_hours = 24.0 * 7.0;
  /// Budget the RM distributes across *running compute nodes*; defaults
  /// to the cluster's total TDP when zero.
  double system_budget_watts = 0.0;
  core::PolicyKind policy = core::PolicyKind::kStaticCaps;
  std::size_t characterization_iterations = 3;
  /// Draw of an idle (unallocated) node: packages near idle plus DRAM.
  double idle_node_watts = 119.0;
  /// EASY backfill: when the head of the queue does not fit, start later
  /// jobs that fit free nodes and whose walltime estimate ends before
  /// the head's earliest possible start.
  bool backfill = false;
  /// Mean time between failures per node, hours. Zero disables failures.
  /// A failure kills the node's job and quarantines the node for
  /// `repair_hours`; the job resubmits from its last checkpoint (or from
  /// scratch without checkpointing).
  double node_mtbf_hours = 0.0;
  double repair_hours = 4.0;
  std::uint64_t failure_seed = 0xfa11;
  /// Checkpoint interval, hours. Zero disables checkpointing: a failure
  /// loses all progress. With checkpointing, at most the last interval's
  /// progress is lost (checkpoint I/O overhead is folded into the
  /// nominal iteration time).
  double checkpoint_interval_hours = 0.0;
  /// Dynamic budget: a per-step budget signal in watts (typically the
  /// cluster's share of facility headroom, from
  /// core::budget_signal_from_trace over a sim::FacilityTrace). Empty
  /// keeps the budget fixed at system_budget_watts. When set, a
  /// core::BudgetGovernor turns the signal into epoch-numbered
  /// revisions adopted at step boundaries; steps past the end of the
  /// signal hold its last value.
  std::vector<double> budget_signal_watts;
  /// Governor knobs (hysteresis, ramp limits, floor) for the signal.
  core::BudgetGovernorOptions governor{};
  /// Power-admission gate (oversubscription). The default kNodes basis is
  /// the legacy node-count-only scheduler. For the power bases, zero
  /// budget_watts/node_tdp_watts inherit the facility budget and the
  /// cluster's node TDP at construction.
  rm::AdmissionOptions admission{};
  /// Observability seam: per-class SLA-violation counters, the
  /// admission-rejection counter and the shed-watts histogram land here.
  /// Inert by default.
  obs::Observability obs{};
};

/// Per-job accounting of a facility run. Times are in hours; a negative
/// start/finish means the event never happened within the horizon.
struct FacilityJobRecord {
  std::string name;
  double arrival_hours = 0.0;
  double start_hours = -1.0;   ///< First start.
  double finish_hours = -1.0;  ///< Final (successful) finish.
  double energy_joules = 0.0;
  std::size_t restarts = 0;    ///< Times a node failure killed the job.
  sim::SlaClass sla_class = sim::SlaClass::kStandard;
  double ideal_hours = 0.0;    ///< Uncapped duration; 0 = no SLA math.
  bool rejected = false;       ///< Refused at admission (never queued).
  bool sla_violated = false;   ///< Slowdown exceeded the class SLA.

  [[nodiscard]] bool started() const noexcept { return start_hours >= 0.0; }
  [[nodiscard]] bool finished() const noexcept {
    return finish_hours >= 0.0;
  }
  [[nodiscard]] double wait_hours() const {
    return started() ? start_hours - arrival_hours : -1.0;
  }
  /// Observed slowdown vs the uncapped ideal (finished jobs with a known
  /// ideal only; -1 otherwise).
  [[nodiscard]] double slowdown() const {
    return finished() && ideal_hours > 0.0
               ? (finish_hours - arrival_hours) / ideal_hours
               : -1.0;
  }
};

/// Outcome of a facility run.
struct FacilityResult {
  double step_hours = 0.0;
  std::vector<double> power_watts;   ///< Facility draw per time step.
  std::vector<double> utilization;   ///< Allocated-node fraction per step.
  std::vector<FacilityJobRecord> jobs;
  std::size_t completed_jobs = 0;
  std::size_t node_failures = 0;
  double total_energy_joules = 0.0;
  /// Budget in force per time step (constant without a budget signal).
  std::vector<double> budget_watts;
  std::size_t budget_revisions = 0;  ///< Governor revisions adopted.
  std::size_t emergency_clamps = 0;  ///< Reallocations that took the clamp.
  std::uint64_t final_budget_epoch = 0;
  /// Over-budget dwell accounting of the programmed caps (how long and
  /// how far the cluster's committed power exceeded a shrinking budget).
  rm::ExcursionTelemetry excursions;

  /// --- Multi-tenant accounting (all zero for single-class runs) --------
  std::size_t admission_rejections = 0;  ///< try_submit refusals.
  std::array<std::size_t, sim::kSlaClassCount> jobs_by_class{};
  std::array<std::size_t, sim::kSlaClassCount> sla_violations_by_class{};
  /// Watts the class-ordered degradation/clamp passes moved off the raw
  /// policy split, summed over reallocations.
  double shed_watts_total = 0.0;

  [[nodiscard]] std::size_t sla_violations() const;
  [[nodiscard]] double mean_power_watts() const;
  [[nodiscard]] double peak_power_watts() const;
  [[nodiscard]] double mean_utilization() const;
  /// Mean queue wait of the jobs that started.
  [[nodiscard]] double mean_wait_hours() const;
};

/// An event-driven (time-stepped) facility: jobs arrive, the scheduler
/// places them FIFO, the configured power policy divides the system
/// budget among the running jobs, and the simulated nodes produce the
/// facility power trace — the paper's Fig. 1 generated from the actual
/// stack instead of a statistical model.
class FacilityManager {
 public:
  /// `cluster` must outlive the manager and hold no GPU node (throws
  /// ps::InvalidArgument otherwise): job characterization has no GPU
  /// domain, so the facility could neither program nor budget GPU caps.
  FacilityManager(sim::Cluster& cluster, const FacilityOptions& options);

  [[nodiscard]] FacilityResult run(std::span<const FacilityJobSpec> trace);

  [[nodiscard]] const FacilityOptions& options() const noexcept {
    return options_;
  }

 private:
  struct RunningJob {
    std::unique_ptr<sim::JobSimulation> simulation;
    runtime::JobCharacterization characterization;
    std::size_t trace_index = 0;
    double iterations_done = 0.0;
    double checkpointed_iterations = 0.0;  ///< Progress safe on disk.
    double last_checkpoint_hours = 0.0;
    std::size_t iterations_total = 0;
    // Steady-state profile under the current caps (refreshed after every
    // re-allocation whose caps differ from the last probe's).
    double iteration_seconds = 0.0;
    double power_watts = 0.0;
    /// The round caps last programmed on the job: the CPU row, then the
    /// GPU row when the round had one. Empty before the first round.
    std::vector<double> programmed_caps;
    /// Caps read back from the hosts after that write, which the last
    /// probe measured under: each host's node cap, then each host's GPU
    /// cap on a GPU-domain job. Empty before the first round.
    std::vector<double> probed_caps;
  };

  /// Earliest time a head-of-queue job `head_nodes` wide could start with
  /// `free_nodes` free now, from the running jobs' expected completions
  /// (the EASY "shadow" reservation).
  [[nodiscard]] double head_shadow_hours(std::size_t head_nodes,
                                         std::size_t free_nodes,
                                         double now_hours) const;

  void start_pending_jobs(std::span<const FacilityJobSpec> trace,
                          double now_hours, FacilityResult& result);
  void reallocate_power();
  /// Programs the round's caps on the jobs whose caps moved, credits
  /// every job the reallocation's iteration, probes a programmed job
  /// whose read-back caps moved, and sums the programmed watts. A job
  /// handed the caps it holds is left alone: rewriting the same caps
  /// would leave every register and memo as it is.
  void program_round(const rm::PowerAllocation& caps);
  /// Rebuilds the policy context's per-job entries and the job limits
  /// from running_ (after a start, a finish or a failure changed the job
  /// set).
  void rebuild_round_inputs();

  /// Observes the budget signal for `step` and adopts the governor's
  /// revision, if any (reallocating the running jobs under the new
  /// budget). No-op without a budget signal.
  void observe_budget_signal(std::size_t step, FacilityResult& result);

  /// Rolls for node failures, kills and resubmits affected jobs, and
  /// releases nodes whose repairs completed. Returns true if the running
  /// set changed.
  bool process_failures(std::span<const FacilityJobSpec> trace,
                        double now_hours, FacilityResult& result);

  /// Work counts of the current run(), reported through options_.obs at
  /// its end: rounds that (re)programmed a job, rounds that left it as it
  /// was, probe iterations and job-start characterizations.
  struct LayerCounts {
    std::uint64_t jobs_programmed = 0;
    std::uint64_t jobs_unmoved = 0;
    std::uint64_t probes = 0;
    std::uint64_t characterizations = 0;
  };

  sim::Cluster* cluster_;
  FacilityOptions options_;
  rm::Scheduler scheduler_;
  double shed_watts_total_ = 0.0;
  /// Owns the enforced budget + renegotiation epoch and the excursion
  /// telemetry; revised by the governor, consulted by reallocate_power.
  rm::SystemPowerManager power_manager_;
  /// Present only when options_.budget_signal_watts is non-empty.
  std::optional<core::BudgetGovernor> governor_;
  /// The configured policy, built once for the manager's life.
  std::unique_ptr<core::Policy> policy_;
  std::size_t emergency_clamps_ = 0;
  std::vector<RunningJob> running_;
  /// The control round's inputs for the current job set, rebuilt only
  /// when running_ changes (round_inputs_stale_); each round sets just
  /// the budget.
  core::PolicyContext context_;
  std::vector<core::JobLimits> round_limits_;
  bool round_inputs_stale_ = true;
  /// Sum of the caps programmed on the running jobs' hosts, taken from
  /// their read-backs when the last reallocation programmed them (caps
  /// change nowhere else).
  double programmed_watts_ = 0.0;
  LayerCounts counts_;
  /// Trace index of each job name (its first entry), built by run().
  std::unordered_map<std::string, std::size_t> trace_index_;
  util::Rng failure_rng_{0xfa11};
  std::vector<std::pair<double, std::size_t>> repairs_;
  /// Checkpointed progress (iterations) by trace index, surviving the
  /// kill/resubmit cycle of a node failure.
  std::map<std::size_t, double> checkpoints_;
};

}  // namespace ps::facility
