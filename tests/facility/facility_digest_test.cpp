// Bit oracle for the facility simulation: a reduced week (64 nodes,
// 48 h, seed 42) through FacilityManager::run under every policy, plus a
// run with node failures and checkpoints, folded into one digest over
// every FacilityResult field. Doubles are hashed by their bit pattern, so
// any change to the simulator, the runtime's characterization or the
// RM's allocation that moves a single output bit changes the digest.
// A change that is meant to be output-neutral (caching, memo sharing,
// skipped recomputation) must leave it as pinned here.
#include "facility/facility_manager.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/budget_governor.hpp"
#include "core/invariants.hpp"
#include "sim/cluster.hpp"
#include "sim/facility_trace.hpp"
#include "util/rng.hpp"

namespace ps::facility {
namespace {

constexpr std::size_t kNodes = 64;
constexpr double kHorizonHours = 48.0;
constexpr double kStepHours = 0.1;

/// FNV-1a over 64-bit words: doubles by bit pattern, counts and flags
/// widened to 64 bits.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool flag) { add(static_cast<std::uint64_t>(flag ? 1 : 0)); }
  void add_count(std::size_t count) {
    add(static_cast<std::uint64_t>(count));
  }
  void add(const std::vector<double>& values) {
    add_count(values.size());
    for (const double value : values) {
      add(value);
    }
  }

  [[nodiscard]] std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

void add_result(Digest& digest, const FacilityResult& result) {
  digest.add(result.step_hours);
  digest.add(result.power_watts);
  digest.add(result.utilization);
  digest.add(result.budget_watts);
  digest.add_count(result.jobs.size());
  for (const FacilityJobRecord& job : result.jobs) {
    digest.add(job.arrival_hours);
    digest.add(job.start_hours);
    digest.add(job.finish_hours);
    digest.add(job.energy_joules);
    digest.add_count(job.restarts);
    digest.add_count(static_cast<std::size_t>(sim::sla_rank(job.sla_class)));
    digest.add(job.ideal_hours);
    digest.add(job.rejected);
    digest.add(job.sla_violated);
  }
  digest.add_count(result.completed_jobs);
  digest.add_count(result.node_failures);
  digest.add(result.total_energy_joules);
  digest.add_count(result.budget_revisions);
  digest.add_count(result.emergency_clamps);
  digest.add(static_cast<std::uint64_t>(result.final_budget_epoch));
  const rm::ExcursionTelemetry& excursions = result.excursions;
  digest.add_count(excursions.excursions);
  digest.add(excursions.over_budget_watt_seconds);
  digest.add(excursions.worst_over_watts);
  digest.add(excursions.last_time_to_safe_seconds);
  digest.add(excursions.max_time_to_safe_seconds);
  digest.add(excursions.in_excursion);
  digest.add(excursions.current_excursion_seconds);
  digest.add_count(result.admission_rejections);
  for (const std::size_t count : result.jobs_by_class) {
    digest.add_count(count);
  }
  for (const std::size_t count : result.sla_violations_by_class) {
    digest.add_count(count);
  }
  digest.add(result.shed_watts_total);
}

struct Inputs {
  std::vector<FacilityJobSpec> jobs;
  std::vector<double> signal_watts;
  double floor_watts = 0.0;
};

/// The facility benchmark's week, scaled to 64 nodes and two days.
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

FacilityOptions options_for(const Inputs& inputs, core::PolicyKind policy) {
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
  return options;
}

/// Runs under fatal invariants, like CI does.
class FacilityDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_mode_ = core::invariants::mode();
    core::invariants::set_mode(core::invariants::Mode::kFatal);
    core::invariants::reset();
  }
  void TearDown() override {
    core::invariants::reset();
    core::invariants::set_mode(previous_mode_);
  }

  core::invariants::Mode previous_mode_ = core::invariants::Mode::kCount;
};

TEST_F(FacilityDigestTest, ReducedWeekDigestIsPinned) {
  const Inputs inputs = make_inputs(sim::Cluster(1).node(0).tdp());
  Digest digest;
  std::size_t completed = 0;
  std::size_t revisions = 0;
  for (const core::PolicyKind policy :
       {core::PolicyKind::kStaticCaps, core::PolicyKind::kMinimizeWaste,
        core::PolicyKind::kJobAdaptive, core::PolicyKind::kMixedAdaptive}) {
    sim::Cluster cluster(kNodes);
    FacilityManager manager(cluster, options_for(inputs, policy));
    const FacilityResult result = manager.run(inputs.jobs);
    completed += result.completed_jobs;
    revisions += result.budget_revisions;
    add_result(digest, result);
  }

  // Failures with checkpointed restarts exercise the kill/resubmit path.
  FacilityOptions failing =
      options_for(inputs, core::PolicyKind::kMixedAdaptive);
  failing.node_mtbf_hours = 400.0;
  failing.checkpoint_interval_hours = 2.0;
  sim::Cluster cluster(kNodes);
  FacilityManager manager(cluster, failing);
  const FacilityResult with_failures = manager.run(inputs.jobs);
  add_result(digest, with_failures);

  // The digest only means something over a run that did real work.
  EXPECT_GT(completed, 40u);
  EXPECT_GT(revisions, 0u);
  EXPECT_GT(with_failures.node_failures, 0u);
  EXPECT_EQ(core::invariants::stats().violations, 0u);
  EXPECT_EQ(digest.hex(), "5b8b88ffe24683dc");
}

}  // namespace
}  // namespace ps::facility
