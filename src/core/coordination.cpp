#include "core/coordination.hpp"

#include <algorithm>
#include <cmath>

#include "core/control_round.hpp"
#include "core/endpoint.hpp"
#include "core/invariants.hpp"
#include "obs/replay.hpp"
#include "rm/power_manager.hpp"
#include "util/error.hpp"

namespace ps::core {

namespace {

std::string_view failure_kind_name(sim::FailureKind kind) {
  switch (kind) {
    case sim::FailureKind::kNodeFailure:
      return "node_failure";
    case sim::FailureKind::kStragglerOnset:
      return "straggler_onset";
    case sim::FailureKind::kStragglerRecovery:
      return "straggler_recovery";
  }
  return "unknown";
}

/// Re-reads into `caps` the caps the jobs' hosts run with, GPU domain
/// included, and returns the largest per-limit move since the last read.
double reread_caps(std::span<sim::JobSimulation* const> jobs,
                   rm::PowerAllocation& caps) {
  double change = 0.0;
  const auto read = [&change](double& slot, double cap) {
    change = std::max(change, std::abs(cap - slot));
    slot = cap;
  };
  caps.job_host_caps.resize(jobs.size());
  caps.job_host_gpu_caps.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sim::JobSimulation& job = *jobs[j];
    caps.job_host_caps[j].resize(job.host_count());
    caps.job_host_gpu_caps[j].resize(job.has_gpu_domain() ? job.host_count()
                                                          : 0);
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      read(caps.job_host_caps[j][h], job.host_cap(h));
      if (job.has_gpu_domain()) {
        read(caps.job_host_gpu_caps[j][h], job.host_gpu_cap(h));
      }
    }
  }
  return change;
}

/// A sample of `job` with its envelope and needed power, no observed
/// power yet.
SampleMessage needed_power_sample(sim::JobSimulation& job,
                                  const runtime::BalancerOptions& balancer,
                                  std::uint64_t sequence) {
  SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = job.name();
  sample.min_settable_cap_watts = job.host(0).min_cap();
  sample.sla_class = job.sla_class();
  // The balancer search under an unconstrained budget re-derives each
  // host's minimum performance-preserving cap for the job's *current*
  // phase. A dead host needs nothing above the settable floor: the
  // policy squeezes it there and the difference returns to the pool.
  double tdp_budget = 0.0;
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    tdp_budget += job.host(h).tdp();
  }
  sample.host_needed_watts = runtime::balance_power(job, tdp_budget, balancer);
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    if (job.host_failed(h)) {
      sample.host_needed_watts[h] = job.host(h).min_cap();
    }
  }
  if (!job.has_gpu_domain()) {
    return sample;
  }
  // Both domains are re-derived against one whole-node time target that
  // honors the *iteration* critical path (the max of the concurrent CPU
  // and GPU phases): a CPU phase far off the critical path needs only the
  // cap that keeps it there, and the freed watts are exactly what shifts
  // to the bottleneck domain.
  const double target = runtime::uncapped_iteration_seconds(job) *
                        (1.0 + balancer.tolerated_slowdown);
  sample.host_gpu_needed_watts.assign(job.host_count(), 0.0);
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    if (!job.host_failed(h)) {
      sample.host_needed_watts[h] =
          runtime::min_cap_for_time(job, h, target, balancer);
    }
    if (!job.host_has_gpu_phase(h)) {
      continue;
    }
    if (sample.gpu_min_cap_watts == 0.0) {
      sample.gpu_min_cap_watts = job.host_gpu_min_cap(h);
      sample.gpu_tdp_watts = job.host_gpu_tdp(h);
    }
    sample.host_gpu_needed_watts[h] =
        job.host_failed(h)
            ? job.host_gpu_min_cap(h)
            : runtime::min_gpu_cap_for_time(job, h, target, balancer);
  }
  return sample;
}

}  // namespace

JobStep::JobStep(sim::JobSimulation& job,
                 const runtime::BalancerOptions& balancer)
    : job_(job), balancer_(balancer) {
  demand_watts_.assign(job.host_count(), job.host(0).min_cap());
  if (job.has_gpu_domain()) {
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      gpu_demand_watts_.push_back(
          job.host_has_gpu_phase(h) ? job.host_gpu_min_cap(h) : 0.0);
    }
  }
}

void JobStep::run_epoch(std::size_t iterations, IterationTotals& totals) {
  for (std::size_t i = 0; i < iterations; ++i) {
    const sim::IterationResult iteration = job_.run_iteration();
    totals.elapsed_seconds += iteration.iteration_seconds;
    totals.energy_joules += iteration.total_energy_joules;
    totals.total_gflop += iteration.total_gflop;
    for (std::size_t h = 0; h < job_.host_count(); ++h) {
      demand_watts_[h] = std::max(demand_watts_[h],
                                  iteration.hosts[h].average_power_watts);
      if (job_.host_has_gpu_phase(h)) {
        gpu_demand_watts_[h] = std::max(
            gpu_demand_watts_[h], iteration.hosts[h].gpu_average_power_watts);
      }
    }
  }
}

SampleMessage JobStep::sample(std::uint64_t sequence) {
  SampleMessage sample = needed_power_sample(job_, balancer_, sequence);
  // A dead host's ratchets fall to its floors, or its running-max history
  // would keep attracting watts.
  for (std::size_t h = 0; h < job_.host_count(); ++h) {
    if (job_.host_failed(h)) {
      demand_watts_[h] = job_.host(h).min_cap();
      if (job_.host_has_gpu_phase(h)) {
        gpu_demand_watts_[h] = job_.host_gpu_min_cap(h);
      }
    }
  }
  // Live "monitor" estimate: the running demand maximum observed so far
  // (a host capped below its demand still reveals demand up to its cap;
  // the estimate grows as caps rise).
  sample.host_observed_watts = demand_watts_;
  sample.host_gpu_observed_watts = gpu_demand_watts_;
  return sample;
}

void JobStep::apply(const PolicyMessage& reply) {
  apply_policy_message(job_, reply);
}

double CoordinationResult::gflops_per_watt() const {
  if (energy_joules <= 0.0) {
    return 0.0;
  }
  return total_gflop / energy_joules;
}

double FailureTelemetry::mean_epochs_to_reclaim() const {
  double total = 0.0;
  std::size_t count = 0;
  for (const ReclaimRecord& record : reclaims) {
    if (record.reclaimed) {
      total += static_cast<double>(record.reclaim_epoch -
                                   record.event_epoch);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

CoordinationLoop::CoordinationLoop(double system_budget_watts,
                                   const CoordinationOptions& options)
    : budget_(system_budget_watts), options_(options) {
  PS_REQUIRE(system_budget_watts > 0.0, "system budget must be positive");
  PS_REQUIRE(options.epoch_iterations > 0,
             "epochs need at least one iteration");
  PS_REQUIRE(options.convergence_watts > 0.0,
             "convergence threshold must be positive");
}

CoordinationResult CoordinationLoop::run(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations) {
  return run_dynamic(jobs, total_iterations, {}, {});
}

CoordinationResult CoordinationLoop::run_dynamic(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations,
    std::span<const sim::FailureEvent> events,
    std::span<const BudgetRevision> revisions,
    FailureTelemetry* telemetry,
    BudgetTelemetry* budget_telemetry) {
  PS_REQUIRE(!jobs.empty(), "coordination needs at least one job");
  PS_REQUIRE(total_iterations > 0, "need at least one iteration");
  for (const auto* job : jobs) {
    PS_REQUIRE(job != nullptr, "job must not be null");
  }
  for (const sim::FailureEvent& event : events) {
    PS_REQUIRE(event.job < jobs.size(), "failure event job out of range");
    PS_REQUIRE(event.host < jobs[event.job]->host_count(),
               "failure event host out of range");
  }
  RevisionSchedule schedule(revisions);

  // Initial state: the control round's uniform seed, each job's runtime
  // seeding its demand estimates at the settable floor. A job's hosts
  // share one envelope, as the policy context assumes.
  std::vector<JobLimits> limits;
  std::vector<JobStep> steps;
  steps.reserve(jobs.size());
  for (sim::JobSimulation* job : jobs) {
    limits.push_back({.hosts = job->host_count(),
                      .floor_watts = job->host(0).min_cap(),
                      .tdp_watts = job->host(0).tdp(),
                      .gpu_domain = job->has_gpu_domain(),
                      .gpu_floor_watts = job->host(0).gpu_min_cap(),
                      .gpu_tdp_watts = job->host(0).gpu_tdp(),
                      .sla_class = job->sla_class()});
    steps.emplace_back(*job, options_.balancer);
  }
  const auto policy = make_policy(options_.policy);
  rm::SystemPowerManager manager(budget_);
  const obs::Observability& obs = options_.obs;
  manager.set_observer(obs);
  const RoundOutcome seeded =
      ControlRound{.jobs = limits, .budget_watts = budget_}.run();
  manager.apply(jobs, seeded.caps, /*enforce_budget=*/false);
  const std::size_t total_limits = seeded.limits;
  // The caps the hosts run with: what keep-vs-clamp weighs, and what the
  // next RM step's moves are measured against.
  rm::PowerAllocation in_force;
  static_cast<void>(reread_caps(jobs, in_force));

  CoordinationResult result;
  std::vector<ReclaimRecord> pending_reclaims;
  std::size_t next_event = 0;
  std::size_t done = 0;
  std::size_t epoch_index = 0;
  while (done < total_iterations) {
    const std::size_t this_epoch =
        std::min(options_.epoch_iterations, total_iterations - done);

    // Adopt this epoch's budget revisions before its iterations run. The
    // caps programmed at the last RM step keep running until this
    // epoch's own RM step — the bounded excursion window.
    schedule.adopt_due(
        epoch_index, manager, "coordination.revision",
        [&](const BudgetRevision& revision, bool applied) {
          if (budget_telemetry != nullptr) {
            ++(applied ? budget_telemetry->revisions_applied
                       : budget_telemetry->revisions_stale);
          }
          obs.emit(epoch_index, obs::cat::kCoord, "revision",
                   {{"revision_epoch", revision.epoch},
                    {"budget_watts", revision.budget_watts},
                    {"applied", applied}});
        });
    const double budget = manager.budget_watts();

    // Apply this epoch's scheduled failures before its iterations run.
    while (next_event < events.size() &&
           events[next_event].epoch <= epoch_index) {
      const sim::FailureEvent& event = events[next_event];
      sim::JobSimulation& job = *jobs[event.job];
      switch (event.kind) {
        case sim::FailureKind::kNodeFailure: {
          ReclaimRecord reclaim;
          reclaim.event_epoch = epoch_index;
          reclaim.job = event.job;
          reclaim.host = event.host;
          reclaim.watts_reclaimed =
              job.host_cap(event.host) - job.host(event.host).min_cap();
          if (job.host_has_gpu_phase(event.host)) {
            // Both domains of a dead host return to the pool.
            reclaim.watts_reclaimed += job.host_gpu_cap(event.host) -
                                       job.host_gpu_min_cap(event.host);
          }
          pending_reclaims.push_back(reclaim);
          // The job's next sample pins the dead host's demand ratchets
          // at its floors.
          job.set_host_failed(event.host, true);
          break;
        }
        case sim::FailureKind::kStragglerOnset:
          job.set_host_slowdown(event.host, event.severity);
          break;
        case sim::FailureKind::kStragglerRecovery:
          job.set_host_slowdown(event.host, 1.0);
          break;
      }
      if (telemetry != nullptr) {
        ++telemetry->events_applied;
      }
      obs.emit(epoch_index, obs::cat::kCoord, "failure",
               {{"kind", std::string(failure_kind_name(event.kind))},
                {"job", static_cast<std::uint64_t>(event.job)},
                {"host", static_cast<std::uint64_t>(event.host)}});
      ++next_event;
    }

    EpochRecord record;
    record.epoch = epoch_index;
    double epoch_max_elapsed = 0.0;
    for (JobStep& step : steps) {
      IterationTotals totals{.energy_joules = record.energy_joules,
                             .total_gflop = result.total_gflop};
      step.run_epoch(this_epoch, totals);
      record.energy_joules = totals.energy_joules;
      result.total_gflop = totals.total_gflop;
      epoch_max_elapsed = std::max(epoch_max_elapsed, totals.elapsed_seconds);
    }
    record.elapsed_seconds = epoch_max_elapsed;
    record.system_power_watts =
        epoch_max_elapsed > 0.0 ? record.energy_joules / epoch_max_elapsed
                                : 0.0;
    done += this_epoch;
    record.budget_watts = budget;
    record.budget_epoch = manager.budget_epoch();

    // Account the control period the epoch's caps just ran for: after a
    // budget drop this is the (single) excursion interval, closed below
    // once the RM step has reprogrammed under the revised budget.
    const double tolerance = 0.5 * static_cast<double>(total_limits);
    const double programmed =
        rm::SystemPowerManager::total_allocated_watts(jobs);
    manager.observe_programmed(programmed, total_limits,
                               record.elapsed_seconds);
    if (programmed > budget + tolerance && budget_telemetry != nullptr) {
      budget_telemetry->excursion_epochs.push_back(epoch_index);
    }

    // RM step: one control round over the live telemetry, in the wire's
    // shape — the context a daemon builds from the same samples. Only
    // system-aware policies are held to the budget.
    std::vector<SampleMessage> samples;
    samples.reserve(steps.size());
    for (JobStep& step : steps) {
      samples.push_back(step.sample(epoch_index + 1));
    }
    const PolicyContext context = context_from_samples(
        budget, jobs.front()->host(0).tdp(),
        jobs.front()->host(0).params().dram_watts, samples);
    const CapsInForce held(in_force);
    const RoundOutcome round =
        ControlRound{.jobs = limits,
                     .budget_watts = budget,
                     .policy = policy.get(),
                     .context = &context,
                     .caps_in_force = &held,
                     .budget_binds = policy->is_system_aware()}
            .run();
    if (round.over_budget && telemetry != nullptr) {
      telemetry->budget_violation_epochs.push_back(epoch_index);
    }
    if (round.verdict == RoundVerdict::kClamp) {
      record.emergency_clamped = true;
      if (budget_telemetry != nullptr) {
        ++budget_telemetry->emergency_clamps;
      }
    }
    if (round.verdict != RoundVerdict::kKeep) {
      manager.apply(jobs, round.caps, /*enforce_budget=*/false);
    }
    // Close the excursion (if any) at the reprogram instant.
    record.allocated_watts =
        rm::SystemPowerManager::total_allocated_watts(jobs);
    manager.observe_programmed(record.allocated_watts, total_limits, 0.0);

    // A failure is reclaimed once the dead host sits at the floor: every
    // watt above the settable minimum is back in the pool. Policies park
    // idle hosts within a fraction of a watt of the floor (slack terms
    // keep caps off exact bounds), so reclaim within half a watt.
    for (ReclaimRecord& reclaim : pending_reclaims) {
      if (reclaim.reclaimed) {
        continue;
      }
      const sim::JobSimulation& job = *jobs[reclaim.job];
      double cap = job.host_cap(reclaim.host);
      double floor_cap = job.host(reclaim.host).min_cap();
      if (job.host_has_gpu_phase(reclaim.host)) {
        // A heterogeneous host is reclaimed only once BOTH its domains
        // sit at their floors.
        cap += job.host_gpu_cap(reclaim.host);
        floor_cap += job.host_gpu_min_cap(reclaim.host);
      }
      if (cap <= floor_cap + 0.5) {
        reclaim.reclaimed = true;
        reclaim.reclaim_epoch = epoch_index;
        // Conservation: the watts the dead host gave up plus what it
        // still holds must equal its pre-failure cap.
        invariants::check_watts_conserved(reclaim.watts_reclaimed + floor_cap,
                                          reclaim.watts_reclaimed, cap, 0.5,
                                          "coordination.reclaim");
        obs.emit(epoch_index, obs::cat::kCoord, "reclaim",
                 {{"job", static_cast<std::uint64_t>(reclaim.job)},
                  {"host", static_cast<std::uint64_t>(reclaim.host)},
                  {"watts_reclaimed", reclaim.watts_reclaimed}});
      }
    }

    // Convergence tracks GPU-domain moves too: a loop still shifting
    // watts CPU<->GPU has not settled.
    record.max_cap_change_watts = reread_caps(jobs, in_force);
    if (!result.converged && epoch_index > 0 &&
        record.max_cap_change_watts < options_.convergence_watts) {
      result.converged = true;
      result.convergence_epoch = epoch_index;
    } else if (record.max_cap_change_watts >= options_.convergence_watts) {
      result.converged = false;  // a phase change can de-converge the loop
    }

    if (obs.tracing()) {
      // One "caps" event per job: the caps the RM step just programmed.
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        obs.trace->emit(obs::caps_event(
            epoch_index, obs::cat::kCoord, {{"job", jobs[j]->name()}},
            in_force.job_host_caps[j], in_force.job_host_gpu_caps[j]));
      }
    }
    obs.emit(epoch_index, obs::cat::kCoord, "epoch",
             {{"epoch", static_cast<std::uint64_t>(record.epoch)},
              {"budget_watts", record.budget_watts},
              {"budget_epoch", record.budget_epoch},
              {"allocated_watts", record.allocated_watts},
              {"emergency", record.emergency_clamped}});

    result.elapsed_seconds += record.elapsed_seconds;
    result.energy_joules += record.energy_joules;
    result.epochs.push_back(record);
    ++epoch_index;
  }
  budget_ = manager.budget_watts();
  if (telemetry != nullptr) {
    telemetry->reclaims = std::move(pending_reclaims);
  }
  if (budget_telemetry != nullptr) {
    budget_telemetry->excursions = manager.excursions();
    budget_telemetry->final_budget_watts = manager.budget_watts();
    budget_telemetry->final_budget_epoch = manager.budget_epoch();
  }
  return result;
}

}  // namespace ps::core
