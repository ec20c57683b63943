#include "facility/facility_manager.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>

#include "core/invariants.hpp"
#include "core/mixes.hpp"
#include "rm/power_manager.hpp"
#include "runtime/characterization.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ps::facility {

namespace {
/// The budget the power manager starts from: the configured one, or the
/// cluster's total TDP when the option was left at zero (mirrors the
/// constructor's default for options_.system_budget_watts).
double effective_budget_watts(const sim::Cluster& cluster,
                              const FacilityOptions& options) {
  if (options.system_budget_watts > 0.0) {
    return options.system_budget_watts;
  }
  return cluster.node(0).tdp() * static_cast<double>(cluster.size());
}

/// The scheduler's admission gate, with the facility defaults filled in:
/// a power basis inherits the facility budget and the cluster's node TDP
/// when its own knobs were left at zero.
rm::AdmissionOptions effective_admission(const sim::Cluster& cluster,
                                         const FacilityOptions& options) {
  rm::AdmissionOptions admission = options.admission;
  if (admission.basis != rm::AdmissionBasis::kNodes) {
    if (admission.budget_watts <= 0.0) {
      admission.budget_watts = effective_budget_watts(cluster, options);
    }
    if (admission.node_tdp_watts <= 0.0) {
      admission.node_tdp_watts = cluster.node(0).tdp();
    }
  }
  return admission;
}

/// Shed-watts histogram buckets (watts per reallocation event).
constexpr std::array<double, 8> kShedBounds = {10.0,   50.0,   100.0,
                                               250.0,  500.0,  1000.0,
                                               2500.0, 5000.0};
}  // namespace

std::vector<FacilityJobSpec> generate_job_trace(
    util::Rng& rng, const JobTraceOptions& options) {
  PS_REQUIRE(std::isfinite(options.horizon_hours) &&
                 options.horizon_hours >= 0.0,
             "horizon must be finite and non-negative");
  PS_REQUIRE(std::isfinite(options.arrivals_per_hour) &&
                 options.arrivals_per_hour >= 0.0,
             "arrival rate must be finite and non-negative");
  PS_REQUIRE(options.min_nodes > 0 && options.min_nodes <= options.max_nodes,
             "node range must satisfy 0 < min <= max");
  PS_REQUIRE(std::isfinite(options.min_duration_hours) &&
                 std::isfinite(options.max_duration_hours) &&
                 options.min_duration_hours > 0.0 &&
                 options.min_duration_hours <= options.max_duration_hours,
             "duration range must satisfy 0 < min <= max");
  PS_REQUIRE(options.nominal_iteration_seconds > 0.0,
             "nominal iteration time must be positive");
  PS_REQUIRE(options.latency_critical_fraction >= 0.0 &&
                 options.best_effort_fraction >= 0.0 &&
                 options.latency_critical_fraction +
                         options.best_effort_fraction <=
                     1.0,
             "class fractions must be non-negative and sum to at most 1");
  PS_REQUIRE(options.diurnal_amplitude >= 0.0 &&
                 options.diurnal_amplitude <= 1.0,
             "diurnal amplitude must lie in [0, 1]");
  PS_REQUIRE(options.burst_rate_multiplier >= 0.0,
             "burst rate multiplier cannot be negative");
  PS_REQUIRE(options.burst_count == 0 || options.burst_duration_hours > 0.0,
             "burst duration must be positive");

  // Degenerate but valid: no time or no demand means no jobs — an empty
  // trace, not an error (FacilityManager::run handles it as a quiet run).
  if (options.horizon_hours == 0.0 || options.arrivals_per_hour == 0.0) {
    return {};
  }

  const bool mixed_classes = options.latency_critical_fraction > 0.0 ||
                             options.best_effort_fraction > 0.0;
  const bool time_varying =
      options.diurnal_amplitude > 0.0 ||
      (options.burst_count > 0 && options.burst_rate_multiplier > 0.0);
  // Flash-crowd centers are seeded and drawn up front, so the burst
  // schedule is a deterministic function of (rng seed, options).
  std::vector<double> burst_centers;
  if (time_varying && options.burst_count > 0) {
    burst_centers.reserve(options.burst_count);
    for (std::size_t b = 0; b < options.burst_count; ++b) {
      burst_centers.push_back(rng.uniform() * options.horizon_hours);
    }
    std::sort(burst_centers.begin(), burst_centers.end());
  }
  const double base = options.arrivals_per_hour;
  // Thinning envelope: the instantaneous rate never exceeds the diurnal
  // peak plus one full burst amplitude.
  const double peak_rate =
      base * (1.0 + options.diurnal_amplitude) +
      (burst_centers.empty() ? 0.0 : base * options.burst_rate_multiplier);
  const auto rate_at = [&](double t) {
    // Diurnal day curve: trough at midnight, peak at noon.
    double rate = base * (1.0 + options.diurnal_amplitude *
                                    std::sin(2.0 * std::numbers::pi * t /
                                                 24.0 -
                                             std::numbers::pi / 2.0));
    for (const double center : burst_centers) {
      const double half_width = 0.5 * options.burst_duration_hours;
      const double distance = std::abs(t - center);
      if (distance < half_width) {
        // Triangular flash-crowd pulse.
        rate += base * options.burst_rate_multiplier *
                (1.0 - distance / half_width);
      }
    }
    return rate;
  };

  const std::vector<kernel::WorkloadConfig> pool =
      core::heatmap_grid(hw::VectorWidth::kYmm256);
  std::vector<FacilityJobSpec> trace;
  double now = 0.0;
  std::size_t sequence = 0;
  for (;;) {
    // Exponential inter-arrival times — a homogeneous Poisson process at
    // the base rate, or at the envelope rate thinned down to rate_at(t)
    // when the demand curve varies (Lewis-Shedler thinning). The
    // homogeneous path draws exactly the legacy rng stream.
    double u = rng.uniform();
    while (u <= 0.0) {
      u = rng.uniform();
    }
    now += -std::log(u) / (time_varying ? peak_rate : base);
    if (now >= options.horizon_hours) {
      break;
    }
    if (time_varying && rng.uniform() * peak_rate >= rate_at(now)) {
      continue;  // thinned: a candidate the true rate does not support
    }
    FacilityJobSpec spec;
    spec.arrival_hours = now;
    spec.request.workload = pool[rng.uniform_index(pool.size())];
    spec.request.node_count =
        options.min_nodes +
        rng.uniform_index(options.max_nodes - options.min_nodes + 1);
    spec.request.name = "trace-job-" + std::to_string(sequence++);
    // Log-uniform durations: short jobs are common, long jobs exist.
    const double log_duration =
        rng.uniform(std::log(options.min_duration_hours),
                    std::log(options.max_duration_hours));
    const double duration_hours = std::exp(log_duration);
    spec.iterations = std::max<std::size_t>(
        1, static_cast<std::size_t>(duration_hours * 3600.0 /
                                    options.nominal_iteration_seconds));
    // Users overestimate walltimes; add a 20% pad like real submissions.
    spec.estimated_hours = duration_hours * 1.2;
    spec.ideal_hours = duration_hours;
    if (mixed_classes) {
      const double draw = rng.uniform();
      if (draw < options.latency_critical_fraction) {
        spec.request.sla_class = sim::SlaClass::kLatencyCritical;
      } else if (draw < options.latency_critical_fraction +
                            options.best_effort_fraction) {
        spec.request.sla_class = sim::SlaClass::kBestEffort;
      }
    }
    trace.push_back(std::move(spec));
  }
  return trace;
}

std::size_t FacilityResult::sla_violations() const {
  std::size_t total = 0;
  for (const std::size_t count : sla_violations_by_class) {
    total += count;
  }
  return total;
}

double FacilityResult::mean_power_watts() const {
  PS_CHECK_STATE(!power_watts.empty(), "empty facility trace");
  return util::mean(power_watts);
}

double FacilityResult::peak_power_watts() const {
  PS_CHECK_STATE(!power_watts.empty(), "empty facility trace");
  return *std::max_element(power_watts.begin(), power_watts.end());
}

double FacilityResult::mean_utilization() const {
  PS_CHECK_STATE(!utilization.empty(), "empty facility trace");
  return util::mean(utilization);
}

double FacilityResult::mean_wait_hours() const {
  util::RunningStats waits;
  for (const auto& job : jobs) {
    if (job.started()) {
      waits.add(job.wait_hours());
    }
  }
  return waits.empty() ? 0.0 : waits.mean();
}

FacilityManager::FacilityManager(sim::Cluster& cluster,
                                 const FacilityOptions& options)
    : cluster_(&cluster),
      options_(options),
      scheduler_(cluster.size(), effective_admission(cluster, options)),
      power_manager_(effective_budget_watts(cluster, options)),
      policy_(core::make_policy(options.policy)),
      failure_rng_(options.failure_seed) {
  PS_REQUIRE(options.step_hours > 0.0, "step must be positive");
  PS_REQUIRE(options.node_mtbf_hours >= 0.0, "MTBF cannot be negative");
  PS_REQUIRE(options.repair_hours > 0.0, "repair time must be positive");
  PS_REQUIRE(options.checkpoint_interval_hours >= 0.0,
             "checkpoint interval cannot be negative");
  PS_REQUIRE(options.horizon_hours >= options.step_hours,
             "horizon must cover at least one step");
  PS_REQUIRE(options.idle_node_watts >= 0.0,
             "idle power cannot be negative");
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    // A round would leave a GPU node's devices at whatever cap they hold
    // and never count them against the budget.
    PS_REQUIRE(cluster.node(n).gpu_count() == 0,
               "facility nodes must be CPU-only: job characterization "
               "(characterize_job) has no GPU domain, so GPU caps would "
               "never be programmed or budgeted");
  }
  if (options_.system_budget_watts <= 0.0) {
    options_.system_budget_watts =
        cluster.node(0).tdp() * static_cast<double>(cluster.size());
  }
  context_.node_tdp_watts = cluster.node(0).tdp();
  context_.uncappable_watts = cluster.node(0).params().dram_watts;
  if (!options_.budget_signal_watts.empty()) {
    for (const double signal : options_.budget_signal_watts) {
      PS_REQUIRE(signal > 0.0, "budget signal must be positive");
    }
    governor_.emplace(options_.system_budget_watts, options_.governor);
  }
}

double FacilityManager::head_shadow_hours(std::size_t head_nodes,
                                          std::size_t free_nodes,
                                          double now_hours) const {
  // Earliest time the head-of-queue job could start: free nodes grow as
  // running jobs reach their expected completions.
  std::vector<std::pair<double, std::size_t>> completions;
  completions.reserve(running_.size());
  for (const RunningJob& job : running_) {
    const double remaining_iterations =
        std::max(0.0, static_cast<double>(job.iterations_total) -
                          job.iterations_done);
    const double remaining_hours =
        remaining_iterations * job.iteration_seconds / 3600.0;
    completions.emplace_back(now_hours + remaining_hours,
                             job.simulation->host_count());
  }
  std::sort(completions.begin(), completions.end());
  for (const auto& [finish_hours, nodes] : completions) {
    if (free_nodes >= head_nodes) {
      break;
    }
    free_nodes += nodes;
    if (free_nodes >= head_nodes) {
      return finish_hours;
    }
  }
  return free_nodes >= head_nodes ? now_hours
                                  : std::numeric_limits<double>::infinity();
}

void FacilityManager::start_pending_jobs(
    std::span<const FacilityJobSpec> trace, double now_hours,
    FacilityResult& result) {
  std::function<bool(const rm::JobRequest&)> backfill_ok;
  // The EASY shadow is the head's reservation as the queue stands before
  // the FIFO phase: the head's width and the free nodes are taken now,
  // the shadow itself only when backfill first asks (most steps never
  // do). Nothing it reads from running_ changes while the scheduler runs.
  std::optional<double> shadow;
  if (options_.backfill) {
    const rm::JobRequest* head = scheduler_.queued_head();
    const std::size_t head_nodes = head == nullptr ? 0 : head->node_count;
    const std::size_t free_nodes = scheduler_.free_node_count();
    backfill_ok = [this, &trace, &shadow, head_nodes, free_nodes,
                   now_hours](const rm::JobRequest& job) {
      const auto found = trace_index_.find(job.name);
      if (found == trace_index_.end()) {
        return false;
      }
      if (!shadow.has_value()) {
        shadow = head_shadow_hours(head_nodes, free_nodes, now_hours);
      }
      // EASY condition: the backfilled job's estimated completion must
      // not cross the head's reservation.
      return now_hours + trace[found->second].estimated_hours <=
             *shadow + 1e-9;
    };
  }
  const std::vector<rm::NodeGrant> grants =
      scheduler_.start_pending(backfill_ok);
  for (const auto& grant : grants) {
    const auto found = trace_index_.find(grant.job_name);
    PS_CHECK_STATE(found != trace_index_.end(),
                   "grant without a trace entry");
    const std::size_t index = found->second;

    RunningJob job;
    job.trace_index = index;
    job.iterations_total = trace[index].iterations;
    // Restarted jobs resume from their last checkpoint.
    const auto saved = checkpoints_.find(index);
    if (saved != checkpoints_.end()) {
      job.iterations_done = saved->second;
      job.checkpointed_iterations = saved->second;
    }
    job.last_checkpoint_hours = now_hours;
    std::vector<hw::NodeModel*> hosts;
    hosts.reserve(grant.node_indices.size());
    for (std::size_t node : grant.node_indices) {
      hosts.push_back(&cluster_->node(node));
    }
    job.simulation = std::make_unique<sim::JobSimulation>(
        grant.job_name, std::move(hosts), trace[index].request.workload);
    job.simulation->set_sla_class(trace[index].request.sla_class);
    job.characterization = runtime::characterize_job(
        *job.simulation, options_.characterization_iterations);
    ++counts_.characterizations;
    job.characterization.sla_class = trace[index].request.sla_class;
    job.simulation->reset_totals();
    running_.push_back(std::move(job));
    round_inputs_stale_ = true;
    if (!result.jobs[index].started()) {
      result.jobs[index].start_hours = now_hours;
    }
  }
  if (!grants.empty()) {
    reallocate_power();
  }
}

void FacilityManager::rebuild_round_inputs() {
  context_.jobs.clear();
  round_limits_.clear();
  for (const auto& job : running_) {
    // Each job's envelope, from its characterization.
    const runtime::JobCharacterization& data = job.characterization;
    context_.jobs.push_back(data);
    round_limits_.push_back(
        {.hosts = data.host_count,
         .floor_watts = data.min_settable_cap_watts,
         .tdp_watts = context_.job_tdp_watts(round_limits_.size()),
         .gpu_domain = data.has_gpu_domain(),
         .gpu_floor_watts = data.gpu_min_cap_watts,
         .gpu_tdp_watts = data.gpu_tdp_watts,
         .sla_class = data.sla_class});
  }
  round_inputs_stale_ = false;
}

void FacilityManager::reallocate_power() {
  if (running_.empty()) {
    programmed_watts_ = 0.0;
    return;
  }
  if (round_inputs_stale_) {
    rebuild_round_inputs();
  }
  context_.system_budget_watts = power_manager_.budget_watts();
  // The budget binds only under a governor: its output may have been
  // computed moments before a brownout revision. No caps in force are
  // handed in, so an over-budget output is clamped, never kept.
  const core::RoundOutcome round =
      core::ControlRound{.jobs = round_limits_,
                         .budget_watts = power_manager_.budget_watts(),
                         .policy = policy_.get(),
                         .context = &context_,
                         .budget_binds = governor_.has_value()}
          .run();
  if (round.verdict == core::RoundVerdict::kClamp) {
    ++emergency_clamps_;
  }
  program_round(round.caps);
  if (round.shed_watts > 0.0 && options_.obs.metrics != nullptr) {
    options_.obs.metrics->histogram("facility.shed_watts", kShedBounds)
        .observe(round.shed_watts);
  }
  shed_watts_total_ += round.shed_watts;
}

void FacilityManager::program_round(const rm::PowerAllocation& caps) {
  PS_REQUIRE(caps.job_host_caps.size() == running_.size(),
             "allocation has a different number of jobs");
  PS_REQUIRE(caps.job_host_gpu_caps.empty() ||
                 caps.job_host_gpu_caps.size() == running_.size(),
             "GPU allocation has a different number of jobs");
  for (std::size_t j = 0; j < running_.size(); ++j) {
    const std::size_t hosts = running_[j].simulation->host_count();
    PS_REQUIRE(caps.job_host_caps[j].size() == hosts,
               "allocation has a different number of hosts for a job");
    const std::size_t gpu_caps = caps.job_gpu_caps(j).size();
    PS_REQUIRE(gpu_caps == 0 || gpu_caps == hosts,
               "GPU allocation has a different number of hosts for a job");
  }
  programmed_watts_ = 0.0;
  std::vector<double> read_back;
  for (std::size_t j = 0; j < running_.size(); ++j) {
    RunningJob& job = running_[j];
    sim::JobSimulation& simulation = *job.simulation;
    const std::span<const double> cpu = caps.job_host_caps[j];
    const std::span<const double> gpu = caps.job_gpu_caps(j);
    // Every reallocation credits the job one iteration of progress.
    job.iterations_done += 1.0;
    const std::span<const double> held = job.programmed_caps;
    const bool unmoved =
        held.size() == cpu.size() + gpu.size() &&
        std::ranges::equal(cpu, held.first(cpu.size())) &&
        std::ranges::equal(gpu, held.subspan(cpu.size()));
    if (unmoved) {
      ++counts_.jobs_unmoved;
    } else {
      ++counts_.jobs_programmed;
      rm::SystemPowerManager::program_job(simulation, cpu, gpu);
      job.programmed_caps.assign(cpu.begin(), cpu.end());
      job.programmed_caps.insert(job.programmed_caps.end(), gpu.begin(),
                                 gpu.end());
      // One probe iteration under the new caps yields the steady-state
      // per-iteration time and power. The simulation is deterministic and
      // its caps are programmed only here (a node cap fixes the package
      // limits), so caps that read back as the last probe's would measure
      // the same profile again: the job keeps the one it has.
      read_back.clear();
      for (std::size_t h = 0; h < simulation.host_count(); ++h) {
        read_back.push_back(simulation.host_cap(h));
      }
      if (simulation.has_gpu_domain()) {
        for (std::size_t h = 0; h < simulation.host_count(); ++h) {
          read_back.push_back(simulation.host_gpu_cap(h));
        }
      }
      if (read_back != job.probed_caps) {
        job.probed_caps.swap(read_back);
        const sim::IterationResult probe = simulation.run_iteration();
        ++counts_.probes;
        job.iteration_seconds = probe.iteration_seconds;
        job.power_watts = probe.average_node_power_watts *
                          static_cast<double>(simulation.host_count());
      }
    }
    // The node caps read back after the job's last write, summed in job
    // and host order.
    for (std::size_t h = 0; h < simulation.host_count(); ++h) {
      programmed_watts_ += job.probed_caps[h];
    }
  }
}

void FacilityManager::observe_budget_signal(std::size_t step,
                                            FacilityResult& result) {
  if (!governor_.has_value()) {
    return;
  }
  const std::vector<double>& signal = options_.budget_signal_watts;
  const double sample = signal[std::min(step, signal.size() - 1)];
  const std::optional<core::BudgetRevision> revision =
      governor_->observe(sample, step);
  if (!revision.has_value()) {
    return;
  }
  core::invariants::check_epoch_monotone(power_manager_.budget_epoch(),
                                         revision->epoch,
                                         "facility.revision");
  power_manager_.set_budget(revision->budget_watts, revision->epoch);
  ++result.budget_revisions;
  // Reprogram immediately: a shrinking envelope must not wait for the
  // next scheduling event, and a growing one should be spent.
  reallocate_power();
}

bool FacilityManager::process_failures(
    std::span<const FacilityJobSpec> trace, double now_hours,
    FacilityResult& result) {
  bool changed = false;

  // Finished repairs first: the node rejoins the pool.
  for (auto it = repairs_.begin(); it != repairs_.end();) {
    if (it->first <= now_hours) {
      scheduler_.restore(it->second);
      it = repairs_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }

  if (options_.node_mtbf_hours <= 0.0) {
    return changed;
  }
  const double per_node_probability =
      std::min(options_.step_hours / options_.node_mtbf_hours, 1.0);
  for (auto it = running_.begin(); it != running_.end();) {
    RunningJob& job = *it;
    const double hosts = static_cast<double>(job.simulation->host_count());
    const double job_probability =
        1.0 - std::pow(1.0 - per_node_probability, hosts);
    if (failure_rng_.uniform() >= job_probability) {
      ++it;
      continue;
    }
    // A node of this job died: the job is lost (no checkpointing) and
    // resubmitted; the node goes into repair.
    const std::string name = job.simulation->name();
    const auto nodes = scheduler_.nodes_of(name);
    const std::size_t failed =
        nodes[failure_rng_.uniform_index(nodes.size())];
    FacilityJobRecord& record = result.jobs[job.trace_index];
    record.restarts += 1;
    ++result.node_failures;
    const rm::JobRequest request = trace[job.trace_index].request;
    // Whatever was checkpointed survives the failure.
    if (options_.checkpoint_interval_hours > 0.0) {
      checkpoints_[job.trace_index] = job.checkpointed_iterations;
    }
    scheduler_.complete(name);
    scheduler_.quarantine(failed);
    repairs_.emplace_back(now_hours + options_.repair_hours, failed);
    scheduler_.submit(request);
    it = running_.erase(it);
    round_inputs_stale_ = true;
    changed = true;
  }
  return changed;
}

FacilityResult FacilityManager::run(
    std::span<const FacilityJobSpec> trace) {
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    PS_REQUIRE(trace[i].arrival_hours <= trace[i + 1].arrival_hours,
               "trace must be sorted by arrival time");
  }
  FacilityResult result;
  result.step_hours = options_.step_hours;
  emergency_clamps_ = 0;
  shed_watts_total_ = 0.0;
  counts_ = {};
  trace_index_.clear();
  result.jobs.resize(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace_index_.try_emplace(trace[i].request.name, i);
    result.jobs[i].name = trace[i].request.name;
    result.jobs[i].arrival_hours = trace[i].arrival_hours;
    result.jobs[i].sla_class = trace[i].request.sla_class;
    result.jobs[i].ideal_hours = trace[i].ideal_hours;
    ++result.jobs_by_class[sim::sla_rank(trace[i].request.sla_class)];
  }

  std::size_t next_arrival = 0;
  const auto steps = static_cast<std::size_t>(options_.horizon_hours /
                                              options_.step_hours);
  for (std::size_t step = 0; step < steps; ++step) {
    const double now = static_cast<double>(step) * options_.step_hours;

    // Admit arrivals up to now. The admission gate may refuse a
    // submission outright (best_effort queue limit, or a power gate it
    // can never fit): the job is recorded rejected, never queued.
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival_hours <= now) {
      if (!scheduler_.try_submit(trace[next_arrival].request)) {
        result.jobs[next_arrival].rejected = true;
        ++result.admission_rejections;
        options_.obs.count("facility.admission_rejections");
      }
      ++next_arrival;
    }
    // The facility's budget signal is sampled once per control period
    // (step); a revision reprograms the running jobs immediately, so the
    // caps exceed a shrunk budget for at most the period that observed
    // the shrink.
    observe_budget_signal(step, result);
    if (process_failures(trace, now, result)) {
      reallocate_power();
    }
    start_pending_jobs(trace, now, result);

    // Advance running jobs by one wall-clock step.
    const double dt_seconds = options_.step_hours * 3600.0;
    double compute_power = 0.0;
    std::size_t busy_nodes = 0;
    bool finished_any = false;
    for (auto& job : running_) {
      compute_power += job.power_watts;
      busy_nodes += job.simulation->host_count();
      job.iterations_done += dt_seconds / job.iteration_seconds;
      if (options_.checkpoint_interval_hours > 0.0 &&
          now - job.last_checkpoint_hours >=
              options_.checkpoint_interval_hours) {
        job.checkpointed_iterations = job.iterations_done;
        job.last_checkpoint_hours = now;
      }
      const double job_energy = job.power_watts * dt_seconds;
      result.jobs[job.trace_index].energy_joules += job_energy;
      result.total_energy_joules += job_energy;
      if (job.iterations_done >=
          static_cast<double>(job.iterations_total)) {
        result.jobs[job.trace_index].finish_hours =
            now + options_.step_hours;
        ++result.completed_jobs;
        scheduler_.complete(job.simulation->name());
        finished_any = true;
      }
    }
    if (finished_any) {
      running_.erase(
          std::remove_if(running_.begin(), running_.end(),
                         [&](const RunningJob& job) {
                           return job.iterations_done >=
                                  static_cast<double>(job.iterations_total);
                         }),
          running_.end());
      round_inputs_stale_ = true;
      start_pending_jobs(trace, now, result);
      reallocate_power();
      // Recompute the sample with the new job set's power.
      compute_power = 0.0;
      busy_nodes = 0;
      for (const auto& job : running_) {
        compute_power += job.power_watts;
        busy_nodes += job.simulation->host_count();
      }
    }

    const double idle_nodes =
        static_cast<double>(cluster_->size() - busy_nodes);
    const double idle_power = idle_nodes * options_.idle_node_watts;
    result.power_watts.push_back(compute_power + idle_power);
    result.total_energy_joules += idle_power * dt_seconds;
    result.utilization.push_back(static_cast<double>(busy_nodes) /
                                 static_cast<double>(cluster_->size()));
    result.budget_watts.push_back(power_manager_.budget_watts());
    // Feed the admission gate the step's measured compute draw: the
    // kMeasuredDraw basis reserves with this EWMA instead of TDP.
    scheduler_.observe_draw(compute_power, busy_nodes);
    if (governor_.has_value()) {
      power_manager_.observe_programmed(programmed_watts_, busy_nodes,
                                        dt_seconds);
    }
  }
  result.emergency_clamps = emergency_clamps_;
  result.final_budget_epoch = power_manager_.budget_epoch();
  result.excursions = power_manager_.excursions();
  result.shed_watts_total = shed_watts_total_;
  options_.obs.count("facility.jobs_programmed", counts_.jobs_programmed);
  options_.obs.count("facility.jobs_unmoved", counts_.jobs_unmoved);
  options_.obs.count("facility.probes", counts_.probes);
  options_.obs.count("facility.characterizations",
                     counts_.characterizations);

  // SLA accounting: a job violates its class SLA when its end-to-end
  // slowdown vs the uncapped ideal exceeds the class tolerance, when the
  // horizon ends with it already past that bound, or when admission
  // rejected it outright.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    FacilityJobRecord& record = result.jobs[i];
    const double tolerated = trace[i].request.sla_tolerated_slowdown();
    bool violated = record.rejected;
    if (!violated && record.ideal_hours > 0.0) {
      const double bound = tolerated * record.ideal_hours;
      if (record.finished()) {
        violated = record.finish_hours - record.arrival_hours > bound;
      } else {
        violated = options_.horizon_hours - record.arrival_hours > bound;
      }
    }
    if (violated) {
      record.sla_violated = true;
      ++result.sla_violations_by_class[sim::sla_rank(record.sla_class)];
      if (options_.obs.metrics != nullptr) {
        options_.obs.count(std::string("facility.sla_violations.") +
                           std::string(sim::to_string(record.sla_class)));
      }
    }
  }
  return result;
}

}  // namespace ps::facility
