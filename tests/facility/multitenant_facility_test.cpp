// Multi-tenant facility runs end to end: admission rejections recorded
// per job and in the obs counters, per-class SLA accounting, shed-watts
// bookkeeping under a brownout, and the measured-draw basis admitting
// concurrency the worst-case-TDP basis refuses.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "facility/facility_io.hpp"
#include "facility/facility_manager.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace ps::facility {
namespace {

using sim::SlaClass;

FacilityJobSpec spec(const std::string& name, double arrival,
                     std::size_t nodes, std::size_t iterations,
                     SlaClass sla_class = SlaClass::kStandard) {
  FacilityJobSpec job;
  job.arrival_hours = arrival;
  job.request.name = name;
  job.request.node_count = nodes;
  job.request.sla_class = sla_class;
  job.iterations = iterations;
  // 0.05 s nominal iterations: hours = iterations / 72000.
  job.ideal_hours = static_cast<double>(iterations) / 72000.0;
  job.estimated_hours = job.ideal_hours * 1.2;
  return job;
}

TEST(MultiTenantFacilityTest, RejectionsAreCountedPerJobAndInObs) {
  sim::Cluster cluster(4);
  obs::MetricsRegistry metrics;
  FacilityOptions options;
  options.step_hours = 0.1;
  options.horizon_hours = 6.0;
  options.characterization_iterations = 2;
  options.admission.best_effort_queue_limit = 1;
  options.obs.metrics = &metrics;
  FacilityManager manager(cluster, options);

  // One job owns the whole cluster past the horizon; three best_effort
  // jobs arrive behind it. The first queues, the other two trip the
  // queue limit and are refused — and a refused job is a violated SLA.
  const std::vector<FacilityJobSpec> trace = {
      spec("hog", 0.0, 4, 50'000'000),
      spec("be-1", 0.2, 1, 72'000, SlaClass::kBestEffort),
      spec("be-2", 0.3, 1, 72'000, SlaClass::kBestEffort),
      spec("be-3", 0.4, 1, 72'000, SlaClass::kBestEffort),
  };
  const FacilityResult result = manager.run(trace);

  EXPECT_EQ(result.admission_rejections, 2u);
  EXPECT_FALSE(result.jobs[1].rejected);
  EXPECT_TRUE(result.jobs[2].rejected);
  EXPECT_TRUE(result.jobs[3].rejected);
  EXPECT_EQ(result.jobs_by_class[sim::sla_rank(SlaClass::kStandard)], 1u);
  EXPECT_EQ(result.jobs_by_class[sim::sla_rank(SlaClass::kBestEffort)], 3u);
  // The rejected jobs violate by definition; the queued one is still
  // inside its generous best_effort slowdown bound at the horizon.
  EXPECT_EQ(result.sla_violations_by_class[sim::sla_rank(
                SlaClass::kBestEffort)],
            2u);
  EXPECT_EQ(result.sla_violations(),
            result.sla_violations_by_class[0] +
                result.sla_violations_by_class[1] +
                result.sla_violations_by_class[2]);

  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  std::uint64_t rejections = 0;
  std::uint64_t best_effort_violations = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "facility.admission_rejections") {
      rejections = value;
    }
    if (name == "facility.sla_violations.best_effort") {
      best_effort_violations = value;
    }
  }
  EXPECT_EQ(rejections, 2u);
  EXPECT_EQ(best_effort_violations,
            result.sla_violations_by_class[sim::sla_rank(
                SlaClass::kBestEffort)]);

  // Multi-tenant state forces the extended CSV form.
  std::ostringstream out;
  write_jobs_csv(out, result);
  EXPECT_NE(out.str().find(",sla_class,sla_violated"), std::string::npos);
}

TEST(MultiTenantFacilityTest, SingleClassRunLeavesNoMultiTenantResidue) {
  sim::Cluster cluster(4);
  obs::MetricsRegistry metrics;
  FacilityOptions options;
  options.step_hours = 0.1;
  options.horizon_hours = 4.0;
  options.characterization_iterations = 2;
  options.obs.metrics = &metrics;
  FacilityManager manager(cluster, options);
  const std::vector<FacilityJobSpec> trace = {
      spec("a", 0.0, 2, 72'000), spec("b", 0.5, 2, 72'000)};
  const FacilityResult result = manager.run(trace);

  EXPECT_EQ(result.admission_rejections, 0u);
  EXPECT_EQ(result.sla_violations(), 0u);
  EXPECT_DOUBLE_EQ(result.shed_watts_total, 0.0);
  // No rejection, no violation, no shed: the registry never even saw
  // the multi-tenant metric names. The run's layer counts are all it holds.
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  std::vector<std::string> counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters.push_back(name);
  }
  EXPECT_EQ(counters, (std::vector<std::string>{
                          "facility.characterizations",
                          "facility.jobs_programmed", "facility.jobs_unmoved",
                          "facility.probes"}));
  EXPECT_TRUE(snapshot.histograms.empty());
  // And the jobs CSV keeps the legacy 7-column bytes.
  std::ostringstream out;
  write_jobs_csv(out, result);
  EXPECT_EQ(out.str().find("sla_class"), std::string::npos);
}

TEST(MultiTenantFacilityTest, BrownoutShedsAndFillsTheHistogram) {
  sim::Cluster cluster(8);
  obs::MetricsRegistry metrics;
  const double tdp = cluster.node(0).tdp();
  FacilityOptions options;
  options.step_hours = 0.1;
  options.horizon_hours = 8.0;
  options.characterization_iterations = 2;
  options.system_budget_watts = 8.0 * tdp;
  // Brownout to 70% of nominal after two hours — scarce enough to force
  // class-ordered shedding, but above the running floors so watts exist
  // to move between classes.
  options.budget_signal_watts.assign(80, 8.0 * tdp);
  for (std::size_t step = 20; step < 80; ++step) {
    options.budget_signal_watts[step] = 0.7 * 8.0 * tdp;
  }
  options.obs.metrics = &metrics;
  FacilityManager manager(cluster, options);
  const std::vector<FacilityJobSpec> trace = {
      spec("lc", 0.0, 3, 2'000'000, SlaClass::kLatencyCritical),
      spec("std", 0.0, 3, 2'000'000),
      spec("be", 0.0, 2, 2'000'000, SlaClass::kBestEffort),
  };
  const FacilityResult result = manager.run(trace);

  EXPECT_GT(result.budget_revisions, 0u);
  EXPECT_GT(result.shed_watts_total, 0.0);
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  bool saw_shed_histogram = false;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name == "facility.shed_watts") {
      saw_shed_histogram = true;
      EXPECT_GT(histogram.total(), 0u);
    }
  }
  EXPECT_TRUE(saw_shed_histogram);
}

TEST(MultiTenantFacilityTest, MeasuredDrawAdmitsWhatWorstCaseCannot) {
  // A 3-TDP power budget: the worst-case basis reserves full TDP per
  // node and can never run more than 3 nodes at once. The measured-draw
  // gate at a 1.4 oversubscription ratio admits a 4th node up front
  // (4 x TDP < 1.4 x budget), the power policy then divides the *real*
  // budget across the running nodes — capping each below TDP — and the
  // EWMA learns the capped draw, packing still more nodes. Actual
  // facility draw stays pinned by the policy; only reservations stretch.
  const auto run_with = [](rm::AdmissionBasis basis, double ratio) {
    sim::Cluster cluster(8);
    FacilityOptions options;
    options.step_hours = 0.1;
    options.horizon_hours = 16.0;
    options.characterization_iterations = 2;
    options.system_budget_watts = 3.0 * cluster.node(0).tdp();
    options.admission.basis = basis;
    options.admission.oversubscription_ratio = ratio;
    FacilityManager manager(cluster, options);
    // 24 one-node jobs, 2 nominal hours each, arriving every 6 minutes:
    // enough overlapping demand to keep the admission gate the binding
    // constraint for the whole first half of the run.
    std::vector<FacilityJobSpec> trace;
    for (std::size_t j = 0; j < 24; ++j) {
      trace.push_back(spec("j" + std::to_string(j), 0.1 * j, 1, 144'000));
    }
    return manager.run(trace);
  };
  const FacilityResult worst =
      run_with(rm::AdmissionBasis::kWorstCaseTdp, 1.0);
  const FacilityResult measured =
      run_with(rm::AdmissionBasis::kMeasuredDraw, 1.4);

  // The TDP gate is a hard 3-node ceiling.
  for (const double utilization : worst.utilization) {
    EXPECT_LE(utilization, 3.0 / 8.0 + 1e-9);
  }
  double measured_peak = 0.0;
  for (const double utilization : measured.utilization) {
    measured_peak = std::max(measured_peak, utilization);
  }
  EXPECT_GT(measured_peak, 3.0 / 8.0);
  EXPECT_GE(measured.completed_jobs, worst.completed_jobs);
  EXPECT_LE(measured.mean_wait_hours(), worst.mean_wait_hours());
  // Oversubscription stretches reservations, not watts: the facility
  // never draws more than the (3-TDP) budget plus the idle baseline of
  // the unallocated nodes.
  const double idle_baseline = 8.0 * 119.0;
  for (const double watts : measured.power_watts) {
    EXPECT_LE(watts, 3.0 * 230.0 + idle_baseline + 16.0);
  }
}

}  // namespace
}  // namespace ps::facility
