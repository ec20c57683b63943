// The facility's layer counts: each round programs and probes only the
// jobs whose caps moved. An unmoved job keeps its caps and its profile
// untouched, and on the reduced week of the digest test the counts are
// the ones the manager had before it skipped anything. There, every job
// was reprogrammed on every round, so the job-rounds and the probes
// pinned below were counted when no job was skipped.
#include "facility/facility_manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/budget_governor.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/facility_trace.hpp"
#include "util/rng.hpp"

namespace ps::facility {
namespace {

struct Counts {
  std::uint64_t programmed = 0;
  std::uint64_t unmoved = 0;
  std::uint64_t probes = 0;
  std::uint64_t characterizations = 0;
};

Counts counts_of(const obs::MetricsRegistry& metrics) {
  Counts counts;
  for (const auto& [name, value] : metrics.snapshot().counters) {
    if (name == "facility.jobs_programmed") {
      counts.programmed = value;
    } else if (name == "facility.jobs_unmoved") {
      counts.unmoved = value;
    } else if (name == "facility.probes") {
      counts.probes = value;
    } else if (name == "facility.characterizations") {
      counts.characterizations = value;
    }
  }
  return counts;
}

FacilityJobSpec spec(const std::string& name, double arrival,
                     std::size_t nodes, std::size_t iterations) {
  FacilityJobSpec job;
  job.arrival_hours = arrival;
  job.request.name = name;
  job.request.node_count = nodes;
  job.iterations = iterations;
  job.estimated_hours = static_cast<double>(iterations) / 72000.0;
  return job;
}

/// Job a runs alone, then beside b, then alone again: three rounds.
const std::vector<FacilityJobSpec> kOverlap = {
    spec("a", 0.0, 2, 3 * 72'000), spec("b", 0.5, 2, 72'000)};

FacilityOptions static_caps(double budget_watts) {
  FacilityOptions options;
  options.step_hours = 0.1;
  options.horizon_hours = 5.0;
  options.policy = core::PolicyKind::kStaticCaps;
  options.characterization_iterations = 2;
  options.system_budget_watts = budget_watts;
  return options;
}

TEST(FacilityLayersTest, UnmovedJobIsNeitherReprogrammedNorProbed) {
  // A budget of every node's TDP: static caps hold each job at its own
  // hungriest host whoever else runs, so a's caps never move.
  sim::Cluster cluster(4);
  obs::MetricsRegistry metrics;
  FacilityOptions options = static_caps(0.0);
  options.obs.metrics = &metrics;
  FacilityManager manager(cluster, options);
  const FacilityResult result = manager.run(kOverlap);
  ASSERT_EQ(result.completed_jobs, 2u);
  const Counts counts = counts_of(metrics);
  // Round 1 programs a; round 2 programs b and leaves a; round 3 (b done)
  // leaves a again.
  EXPECT_EQ(counts.programmed, 2u);
  EXPECT_EQ(counts.unmoved, 2u);
  EXPECT_EQ(counts.probes, 2u);
  EXPECT_EQ(counts.characterizations, 2u);
}

TEST(FacilityLayersTest, MovedJobIsReprogrammedAndProbed) {
  // 170 W a node when both jobs run, more than a job's hungriest host
  // when one runs alone: a's caps move on every round.
  sim::Cluster cluster(4);
  obs::MetricsRegistry metrics;
  FacilityOptions options = static_caps(4 * 170.0);
  options.obs.metrics = &metrics;
  FacilityManager manager(cluster, options);
  const FacilityResult result = manager.run(kOverlap);
  ASSERT_EQ(result.completed_jobs, 2u);
  const Counts counts = counts_of(metrics);
  EXPECT_EQ(counts.programmed, 4u);
  EXPECT_EQ(counts.unmoved, 0u);
  EXPECT_EQ(counts.probes, 4u);
}

// ---- The digest test's reduced week (64 nodes, 48 h, seed 42) ----------

constexpr std::size_t kNodes = 64;
constexpr double kHorizonHours = 48.0;
constexpr double kStepHours = 0.1;
/// Summed over the four policies and the failure run, counted on the
/// manager that reprogrammed every job on every round.
constexpr std::uint64_t kJobRounds = 2576;
constexpr std::uint64_t kProbes = 672;
constexpr std::uint64_t kCharacterizations = 280;

struct Inputs {
  std::vector<FacilityJobSpec> jobs;
  std::vector<double> signal_watts;
  double floor_watts = 0.0;
};

Inputs make_inputs(double node_tdp_watts) {
  util::Rng rng(42);
  util::Rng job_rng = rng.fork(1);
  util::Rng power_rng = rng.fork(2);

  JobTraceOptions traffic;
  traffic.horizon_hours = kHorizonHours;
  traffic.arrivals_per_hour = 1.0;
  traffic.min_nodes = 4;
  traffic.max_nodes = 24;
  traffic.min_duration_hours = 1.0;
  traffic.max_duration_hours = 8.0;
  traffic.latency_critical_fraction = 0.15;
  traffic.best_effort_fraction = 0.3;
  traffic.diurnal_amplitude = 0.4;
  traffic.burst_count = 1;
  traffic.burst_rate_multiplier = 4.0;
  traffic.burst_duration_hours = 2.0;

  sim::FacilityTraceParams site;
  site.days = 2;
  site.samples_per_day = 24;
  site.burst_count = 1;
  site.burst_amplitude_mw = 0.3;
  site.burst_duration_days = 0.25;
  const sim::FacilityTrace trace = sim::generate_facility_trace(site,
                                                                power_rng);
  Inputs inputs;
  inputs.jobs = generate_job_trace(job_rng, traffic);
  const double cluster_tdp = node_tdp_watts * static_cast<double>(kNodes);
  inputs.floor_watts = 0.3 * cluster_tdp;
  inputs.signal_watts = core::budget_signal_from_trace(
      trace, 0.015,
      static_cast<std::size_t>(std::lround(kHorizonHours / kStepHours)),
      inputs.floor_watts);
  return inputs;
}

FacilityOptions options_for(const Inputs& inputs, core::PolicyKind policy,
                            obs::MetricsRegistry& metrics) {
  FacilityOptions options;
  options.step_hours = kStepHours;
  options.horizon_hours = kHorizonHours;
  options.system_budget_watts = inputs.signal_watts.front();
  options.policy = policy;
  options.backfill = true;
  options.budget_signal_watts = inputs.signal_watts;
  options.governor.floor_watts = inputs.floor_watts;
  options.governor.hysteresis_watts = 0.03 * options.system_budget_watts;
  options.admission.basis = rm::AdmissionBasis::kMeasuredDraw;
  options.admission.oversubscription_ratio = 1.3;
  options.admission.best_effort_queue_limit = 8;
  options.obs.metrics = &metrics;
  return options;
}

TEST(FacilityLayersTest, ReducedWeekCountsAddUpToTheJobRounds) {
  const Inputs inputs = make_inputs(sim::Cluster(1).node(0).tdp());
  obs::MetricsRegistry metrics;
  for (const core::PolicyKind policy :
       {core::PolicyKind::kStaticCaps, core::PolicyKind::kMinimizeWaste,
        core::PolicyKind::kJobAdaptive, core::PolicyKind::kMixedAdaptive}) {
    sim::Cluster cluster(kNodes);
    FacilityManager manager(cluster, options_for(inputs, policy, metrics));
    static_cast<void>(manager.run(inputs.jobs));
  }
  FacilityOptions failing =
      options_for(inputs, core::PolicyKind::kMixedAdaptive, metrics);
  failing.node_mtbf_hours = 400.0;
  failing.checkpoint_interval_hours = 2.0;
  sim::Cluster cluster(kNodes);
  FacilityManager manager(cluster, failing);
  static_cast<void>(manager.run(inputs.jobs));

  const Counts counts = counts_of(metrics);
  EXPECT_EQ(counts.programmed + counts.unmoved, kJobRounds);
  EXPECT_EQ(counts.probes, kProbes);
  EXPECT_LE(counts.probes, counts.programmed);
  EXPECT_EQ(counts.characterizations, kCharacterizations);
  // Most job-rounds leave the job's caps where they were.
  EXPECT_GT(counts.unmoved, counts.programmed);
}

}  // namespace
}  // namespace ps::facility
