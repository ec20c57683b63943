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

}  // namespace

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

PolicyContext CoordinationLoop::build_context(
    std::span<sim::JobSimulation* const> jobs) {
  // Each job's live telemetry in the wire's shape: the RM step sees
  // exactly the context a daemon builds from the same samples.
  std::vector<SampleMessage> samples(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim::JobSimulation& job = *jobs[j];
    SampleMessage& sample = samples[j];
    sample.min_settable_cap_watts = job.host(0).min_cap();
    sample.sla_class = job.sla_class();
    // Live "needed" estimate: the balancer search under an unconstrained
    // budget re-derives each host's minimum performance-preserving cap
    // for the job's *current* phase.
    double tdp_budget = 0.0;
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      tdp_budget += job.host(h).tdp();
    }
    sample.host_needed_watts =
        runtime::balance_power(job, tdp_budget, options_.balancer);
    // A dead host needs (and demands) nothing above the settable floor:
    // the policy squeezes it there and the difference returns to the
    // pool for the survivors.
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      if (job.host_failed(h)) {
        sample.host_needed_watts[h] = job.host(h).min_cap();
        live_[j].demand_watts[h] = job.host(h).min_cap();
      }
    }
    // Live "monitor" estimate: the running demand maximum observed so
    // far (a host capped below its demand still reveals demand up to its
    // cap; the estimate grows as caps rise).
    sample.host_observed_watts = live_[j].demand_watts;
    if (job.has_gpu_domain()) {
      // GPU-domain telemetry: live demand from the GPU ratchet, needed
      // power re-derived per domain against one whole-node time target.
      // Both searches must honor the *iteration* critical path (the max
      // of the concurrent CPU and GPU phases): a CPU phase far off the
      // critical path needs only the cap that keeps it there, and the
      // freed watts are exactly what shifts to the bottleneck domain.
      const double target =
          runtime::uncapped_iteration_seconds(job) *
          (1.0 + options_.balancer.tolerated_slowdown);
      sample.host_gpu_needed_watts.assign(job.host_count(), 0.0);
      sample.host_gpu_observed_watts = live_[j].gpu_demand_watts;
      for (std::size_t h = 0; h < job.host_count(); ++h) {
        if (!job.host_failed(h)) {
          sample.host_needed_watts[h] =
              runtime::min_cap_for_time(job, h, target, options_.balancer);
        }
        if (!job.host_has_gpu_phase(h)) {
          continue;
        }
        if (sample.gpu_min_cap_watts == 0.0) {
          sample.gpu_min_cap_watts = job.host_gpu_min_cap(h);
          sample.gpu_tdp_watts = job.host_gpu_tdp(h);
        }
        if (job.host_failed(h)) {
          sample.host_gpu_needed_watts[h] = job.host_gpu_min_cap(h);
          live_[j].gpu_demand_watts[h] = job.host_gpu_min_cap(h);
          sample.host_gpu_observed_watts[h] = job.host_gpu_min_cap(h);
        } else {
          sample.host_gpu_needed_watts[h] = runtime::min_gpu_cap_for_time(
              job, h, target, options_.balancer);
        }
      }
    }
  }
  return context_from_samples(budget_, jobs.front()->host(0).tdp(),
                              jobs.front()->host(0).params().dram_watts,
                              samples);
}

CoordinationResult CoordinationLoop::run(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations) {
  return run_with_failures(jobs, total_iterations, {}, nullptr);
}

CoordinationResult CoordinationLoop::run_with_failures(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations,
    std::span<const sim::FailureEvent> events,
    FailureTelemetry* telemetry) {
  return run_dynamic(jobs, total_iterations, events, {}, telemetry, nullptr);
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
  for (std::size_t r = 1; r < revisions.size(); ++r) {
    PS_REQUIRE(revisions[r - 1].at_epoch <= revisions[r].at_epoch,
               "budget revisions must be sorted by at_epoch");
  }

  // Initial state: the control round's uniform seed, demand estimates
  // seeded at the settable floor. A job's hosts share one envelope, as
  // the policy context assumes.
  std::vector<JobLimits> limits;
  live_.assign(jobs.size(), {});
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sim::JobSimulation& job = *jobs[j];
    limits.push_back({.hosts = job.host_count(),
                      .floor_watts = job.host(0).min_cap(),
                      .tdp_watts = job.host(0).tdp(),
                      .gpu_domain = job.has_gpu_domain(),
                      .gpu_floor_watts = job.host(0).gpu_min_cap(),
                      .gpu_tdp_watts = job.host(0).gpu_tdp(),
                      .sla_class = job.sla_class()});
    live_[j].demand_watts.assign(job.host_count(), job.host(0).min_cap());
    if (job.has_gpu_domain()) {
      live_[j].gpu_demand_watts.assign(job.host_count(), 0.0);
      for (std::size_t h = 0; h < job.host_count(); ++h) {
        if (job.host_has_gpu_phase(h)) {
          live_[j].gpu_demand_watts[h] = job.host_gpu_min_cap(h);
        }
      }
    }
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
  std::size_t next_revision = 0;
  std::size_t done = 0;
  std::size_t epoch_index = 0;
  while (done < total_iterations) {
    const std::size_t this_epoch =
        std::min(options_.epoch_iterations, total_iterations - done);

    // Adopt this epoch's budget revisions before its iterations run. The
    // caps programmed at the last RM step keep running until this
    // epoch's own RM step — the bounded excursion window.
    while (next_revision < revisions.size() &&
           revisions[next_revision].at_epoch <= epoch_index) {
      const BudgetRevision& revision = revisions[next_revision];
      invariants::check_epoch_monotone(manager.budget_epoch(), revision.epoch,
                                       "coordination.revision");
      const bool applied =
          manager.set_budget(revision.budget_watts, revision.epoch);
      if (applied) {
        budget_ = revision.budget_watts;
        if (budget_telemetry != nullptr) {
          ++budget_telemetry->revisions_applied;
        }
      } else if (budget_telemetry != nullptr) {
        ++budget_telemetry->revisions_stale;
      }
      obs.emit(epoch_index, obs::cat::kCoord, "revision",
               {{"revision_epoch", revision.epoch},
                {"budget_watts", revision.budget_watts},
                {"applied", applied}});
      ++next_revision;
    }

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
          job.set_host_failed(event.host, true);
          // The demand ratchet must fall with the host: a dead host's
          // running-max history would otherwise keep attracting watts.
          live_[event.job].demand_watts[event.host] =
              job.host(event.host).min_cap();
          if (job.host_has_gpu_phase(event.host)) {
            live_[event.job].gpu_demand_watts[event.host] =
                job.host_gpu_min_cap(event.host);
          }
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
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      double job_elapsed = 0.0;
      for (std::size_t i = 0; i < this_epoch; ++i) {
        const sim::IterationResult iteration = jobs[j]->run_iteration();
        job_elapsed += iteration.iteration_seconds;
        record.energy_joules += iteration.total_energy_joules;
        result.total_gflop += iteration.total_gflop;
        for (std::size_t h = 0; h < jobs[j]->host_count(); ++h) {
          live_[j].demand_watts[h] =
              std::max(live_[j].demand_watts[h],
                       iteration.hosts[h].average_power_watts);
          if (jobs[j]->host_has_gpu_phase(h)) {
            live_[j].gpu_demand_watts[h] =
                std::max(live_[j].gpu_demand_watts[h],
                         iteration.hosts[h].gpu_average_power_watts);
          }
        }
      }
      epoch_max_elapsed = std::max(epoch_max_elapsed, job_elapsed);
    }
    record.elapsed_seconds = epoch_max_elapsed;
    record.system_power_watts =
        epoch_max_elapsed > 0.0 ? record.energy_joules / epoch_max_elapsed
                                : 0.0;
    done += this_epoch;
    record.budget_watts = budget_;
    record.budget_epoch = manager.budget_epoch();

    // Account the control period the epoch's caps just ran for: after a
    // budget drop this is the (single) excursion interval, closed below
    // once the RM step has reprogrammed under the revised budget.
    const double tolerance = 0.5 * static_cast<double>(total_limits);
    const double programmed =
        rm::SystemPowerManager::total_allocated_watts(jobs);
    manager.observe_programmed(programmed, total_limits,
                               record.elapsed_seconds);
    if (programmed > budget_ + tolerance && budget_telemetry != nullptr) {
      budget_telemetry->excursion_epochs.push_back(epoch_index);
    }

    // RM step: one control round over the live telemetry. Only
    // system-aware policies are held to the budget.
    const PolicyContext context = build_context(jobs);
    const RoundOutcome round =
        ControlRound{.jobs = limits,
                     .budget_watts = budget_,
                     .policy = policy.get(),
                     .context = &context,
                     .caps_in_force = &in_force,
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
    manager.observe_programmed(
        rm::SystemPowerManager::total_allocated_watts(jobs), total_limits,
        0.0);

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

    record.allocated_watts =
        rm::SystemPowerManager::total_allocated_watts(jobs);
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
