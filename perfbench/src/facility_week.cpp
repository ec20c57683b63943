// facility_week: one simulated week of a few-hundred-node site through
// facility::FacilityManager::run, once per power policy.
//
// Inputs (all from the pass seed): a Poisson job trace with diurnal
// demand, flash crowds and latency-critical / best-effort classes; a
// facility power trace turned into the cluster's budget signal by
// core::budget_signal_from_trace. The manager admits on measured draw
// with oversubscription, backfills EASY-style, and follows the signal
// through its budget governor, so revisions, SLA degradation and the
// emergency clamp all run. Set-up is trace generation plus the cluster
// builds; a unit is one week-long run of one policy.
//
// A pass runs kWeeksPerPass weeks (traces), each under every policy. The
// traces come from the run's seed, and every pass of a run replays the
// same ones, so the passes of a run are identical work and differ only
// by the host (see add_end_to_end). Each pass still starts from scratch:
// fresh inputs, fresh clusters.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/budget_governor.hpp"
#include "core/invariants.hpp"
#include "facility/facility_manager.hpp"
#include "sim/cluster.hpp"
#include "sim/facility_trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ps;

constexpr std::size_t kNodes = 256;
constexpr double kHorizonHours = 24.0 * 7.0;
constexpr double kStepHours = 0.1;
/// The cluster's share of the facility's headroom: about 60% of the
/// cluster's TDP on an average hour, less at the facility's peaks.
constexpr double kClusterShare = 0.06;
/// Weeks per pass: enough that a run's inputs average out the trace to
/// trace spread of a single week.
constexpr std::size_t kWeeksPerPass = 8;

const core::PolicyKind kPolicies[] = {
    core::PolicyKind::kStaticCaps, core::PolicyKind::kMinimizeWaste,
    core::PolicyKind::kJobAdaptive, core::PolicyKind::kMixedAdaptive};

/// The exact counts one policy's week produces.
struct WeekCounts {
  std::size_t jobs_completed = 0;
  std::size_t revisions = 0;
  std::size_t admission_rejections = 0;
  std::size_t sla_violations = 0;

  bool operator==(const WeekCounts&) const = default;
};

/// Recorded at the canonical seed, in kPolicies order.
constexpr std::uint64_t kCanonicalSeed = 42;
constexpr std::array<WeekCounts, 4> kCanonicalCounts = {{
    {132, 103, 4, 12},
    {133, 103, 4, 12},
    {134, 103, 4, 12},
    {134, 103, 4, 12},
}};

std::string to_string(const WeekCounts& counts) {
  return "completed " + std::to_string(counts.jobs_completed) +
         ", revisions " + std::to_string(counts.revisions) +
         ", rejections " + std::to_string(counts.admission_rejections) +
         ", sla violations " + std::to_string(counts.sla_violations);
}

struct Inputs {
  std::vector<facility::FacilityJobSpec> jobs;
  std::vector<double> signal_watts;
  double budget_watts = 0.0;
  double floor_watts = 0.0;
};

Inputs generate_inputs(std::uint64_t seed, double node_tdp_watts) {
  Inputs inputs;
  util::Rng rng(seed);
  util::Rng job_rng = rng.fork(1);
  util::Rng power_rng = rng.fork(2);

  facility::JobTraceOptions traffic;
  traffic.horizon_hours = kHorizonHours;
  traffic.arrivals_per_hour = 0.8;
  traffic.min_nodes = 16;
  traffic.max_nodes = 64;
  traffic.min_duration_hours = 2.0;
  traffic.max_duration_hours = 16.0;
  traffic.latency_critical_fraction = 0.15;
  traffic.best_effort_fraction = 0.3;
  traffic.diurnal_amplitude = 0.4;
  traffic.burst_count = 2;
  traffic.burst_rate_multiplier = 4.0;
  traffic.burst_duration_hours = 2.0;
  inputs.jobs = facility::generate_job_trace(job_rng, traffic);

  sim::FacilityTraceParams site;
  site.days = 7;
  site.samples_per_day = 24;
  site.burst_count = 1;
  site.burst_amplitude_mw = 0.3;
  site.burst_duration_days = 0.25;
  const sim::FacilityTrace trace = sim::generate_facility_trace(site,
                                                                power_rng);
  const double cluster_tdp = node_tdp_watts * static_cast<double>(kNodes);
  inputs.floor_watts = 0.3 * cluster_tdp;
  inputs.signal_watts = core::budget_signal_from_trace(
      trace, kClusterShare,
      static_cast<std::size_t>(std::lround(kHorizonHours / kStepHours)),
      inputs.floor_watts);
  inputs.budget_watts = inputs.signal_watts.front();
  return inputs;
}

facility::FacilityOptions facility_options(const Inputs& inputs,
                                           core::PolicyKind policy) {
  facility::FacilityOptions options;
  options.step_hours = kStepHours;
  options.horizon_hours = kHorizonHours;
  options.system_budget_watts = inputs.budget_watts;
  options.policy = policy;
  options.backfill = true;
  options.budget_signal_watts = inputs.signal_watts;
  options.governor.floor_watts = inputs.floor_watts;
  options.governor.hysteresis_watts = 0.03 * inputs.budget_watts;
  options.admission.basis = rm::AdmissionBasis::kMeasuredDraw;
  options.admission.oversubscription_ratio = 1.3;
  options.admission.best_effort_queue_limit = 8;
  return options;
}

/// Why a week's result is wrong, or empty when it is consistent.
std::string check_week(const facility::FacilityResult& result,
                       const Inputs& inputs) {
  if (result.jobs.size() != inputs.jobs.size()) {
    return "job records do not match the trace";
  }
  std::size_t finished = 0;
  std::size_t rejected = 0;
  for (const facility::FacilityJobRecord& job : result.jobs) {
    finished += job.finished() ? 1 : 0;
    if (job.rejected) {
      ++rejected;
      if (job.sla_class != sim::SlaClass::kBestEffort || job.started()) {
        return "job " + job.name + " was rejected but is not a queued "
               "best_effort job";
      }
    }
  }
  if (finished != result.completed_jobs) {
    return "completed count disagrees with the job records";
  }
  if (rejected != result.admission_rejections) {
    return "rejection count disagrees with the job records";
  }
  if (result.sla_violations() > result.jobs.size()) {
    return "more SLA violations than jobs";
  }
  if (result.budget_revisions == 0) {
    return "the budget signal produced no revision";
  }
  if (result.budget_watts.size() != result.power_watts.size() ||
      !(result.total_energy_joules > 0.0) ||
      !std::isfinite(result.total_energy_joules)) {
    return "malformed power accounting";
  }
  return {};
}

struct Layers {
  std::vector<double> trace_ms;
  std::vector<double> schedule_us;
  std::vector<double> run_ms;
  bool have_counts = false;
  WeekCounts counts;  ///< First traced pass, summed over weeks and policies.
};

struct PassResult : Pass {
  std::vector<WeekCounts> counts;  ///< Week-major, kPolicies order.
};

/// One pass: a week per trace seed in `seeds`, each under every policy.
PassResult run_pass(const std::vector<std::uint64_t>& seeds, Layers* layers,
                    UnitLedger& ledger, Report& report, bool corrupt_output) {
  PassResult pass;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();

  std::vector<std::unique_ptr<sim::Cluster>> clusters;
  for (std::size_t c = 0; c < seeds.size() * std::size(kPolicies); ++c) {
    clusters.push_back(std::make_unique<sim::Cluster>(kNodes));
  }
  std::vector<Inputs> weeks;
  for (const std::uint64_t seed : seeds) {
    const auto trace_start = Clock::now();
    weeks.push_back(generate_inputs(seed, clusters.front()->node(0).tdp()));
    if (layers != nullptr) {
      layers->trace_ms.push_back(seconds_since(trace_start) * 1e3);
      // The governor's share of a week, timed from outside: the schedule
      // the manager's governor derives from the same signal.
      const Inputs& inputs = weeks.back();
      const auto schedule_start = Clock::now();
      const std::vector<core::BudgetRevision> schedule =
          core::make_budget_schedule(
              inputs.budget_watts, inputs.signal_watts,
              facility_options(inputs, kPolicies[0]).governor);
      layers->schedule_us.push_back(seconds_since(schedule_start) * 1e6);
      if (schedule.empty()) {
        report.fail_check("budget schedule is empty");
      }
    }
  }
  pass.setup_s = seconds_since(start);

  WeekCounts total;
  for (std::size_t unit = 0; unit < clusters.size(); ++unit) {
    const Inputs& inputs = weeks[unit / std::size(kPolicies)];
    const std::size_t p = unit % std::size(kPolicies);
    const std::uint64_t violations_before =
        core::invariants::stats().violations;
    pass.sample_host();
    const auto unit_start = Clock::now();
    bool ok = true;
    facility::FacilityResult result;
    try {
      facility::FacilityManager manager(*clusters[unit],
                                        facility_options(inputs, kPolicies[p]));
      result = manager.run(inputs.jobs);
    } catch (const std::exception& error) {
      ok = false;
      report.fail_check(std::string("facility run threw: ") + error.what());
    }
    const double unit_ms = seconds_since(unit_start) * 1e3;
    pass.unit_ms.push_back(unit_ms);
    if (layers != nullptr) {
      layers->run_ms.push_back(unit_ms);
    }
    if (corrupt_output && unit == 0) {
      ++result.completed_jobs;
    }
    if (ok) {
      const std::string problem = check_week(result, inputs);
      if (!problem.empty()) {
        ok = false;
        report.fail_check(std::string(core::to_string(kPolicies[p])) +
                          ": " + problem);
      }
      if (core::invariants::stats().violations != violations_before) {
        ok = false;
        report.fail_check(std::string(core::to_string(kPolicies[p])) +
                          ": invariant violation");
      }
    }
    ledger.record(ok);
    const WeekCounts counts{result.completed_jobs, result.budget_revisions,
                            result.admission_rejections,
                            result.sla_violations()};
    pass.counts.push_back(counts);
    total.jobs_completed += counts.jobs_completed;
    total.revisions += counts.revisions;
    total.admission_rejections += counts.admission_rejections;
    total.sla_violations += counts.sla_violations;
  }
  if (layers != nullptr && !layers->have_counts) {
    layers->have_counts = true;
    layers->counts = total;
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = cpu_seconds() - cpu_start;
  return pass;
}

}  // namespace

Report run_facility_week(const Options& options) {
  Report report;
  UnitLedger ledger;

  // Output check: the canonical week reproduces the recorded counts.
  {
    Layers scratch;
    UnitLedger check_ledger;
    const PassResult canonical =
        run_pass({kCanonicalSeed}, options.trace ? &scratch : nullptr,
                 check_ledger, report, options.inject_wrong_output);
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const std::string name(core::to_string(kPolicies[p]));
      report.note("canonical seed " + std::to_string(kCanonicalSeed) + " " +
                  name + ": " + to_string(canonical.counts[p]));
      if (!(canonical.counts[p] == kCanonicalCounts[p])) {
        report.fail_check(name + " counts differ from the recorded " +
                          to_string(kCanonicalCounts[p]));
      }
    }
    if (check_ledger.failed() != 0) {
      report.fail_check("canonical week had failed units");
    }
  }

  std::vector<std::uint64_t> week_seeds;
  for (std::size_t week = 0; week < kWeeksPerPass; ++week) {
    week_seeds.push_back(derive_seed(options.seed, week));
  }
  PassTimings untraced;
  PassTimings traced;
  Layers layers;
  run_passes(options, untraced, traced,
             [&](std::uint64_t, std::size_t, bool traced_pass) -> Pass {
               return run_pass(week_seeds, traced_pass ? &layers : nullptr,
                               ledger, report, false);
             });
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();
  report.note("weeks attempted " + std::to_string(ledger.attempted()) +
              ", failed " + std::to_string(ledger.failed()));

  if (!options.trace) {
    add_end_to_end(untraced, report);
    return report;
  }
  report.add("facility.trace_ms", median(layers.trace_ms), "ms");
  report.add("facility.run_ms", median(layers.run_ms), "ms");
  report.add("core.governor.schedule_us", median(layers.schedule_us), "us");
  report.add("facility.jobs_completed",
             static_cast<double>(layers.counts.jobs_completed), "count");
  report.add("facility.revisions",
             static_cast<double>(layers.counts.revisions), "count");
  report.add("facility.admission_rejections",
             static_cast<double>(layers.counts.admission_rejections),
             "count");
  report.add("facility.sla_violations",
             static_cast<double>(layers.counts.sla_violations), "count");
  add_trace_summary(untraced, traced, report);
  return report;
}

}  // namespace perfbench
