#include "facility/facility_manager.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::facility {
namespace {

JobTraceOptions small_trace_options() {
  JobTraceOptions options;
  options.horizon_hours = 24.0;
  options.arrivals_per_hour = 1.0;
  options.min_nodes = 2;
  options.max_nodes = 6;
  options.min_duration_hours = 0.5;
  options.max_duration_hours = 4.0;
  return options;
}

FacilityOptions small_facility_options() {
  FacilityOptions options;
  options.step_hours = 0.25;
  options.horizon_hours = 48.0;
  options.policy = core::PolicyKind::kStaticCaps;
  options.characterization_iterations = 2;
  return options;
}

TEST(JobTraceTest, ArrivalsSortedWithinHorizonAndRanges) {
  util::Rng rng(1);
  const JobTraceOptions options = small_trace_options();
  const std::vector<FacilityJobSpec> trace =
      generate_job_trace(rng, options);
  ASSERT_FALSE(trace.empty());
  double previous = 0.0;
  for (const auto& spec : trace) {
    EXPECT_GE(spec.arrival_hours, previous);
    EXPECT_LT(spec.arrival_hours, options.horizon_hours);
    EXPECT_GE(spec.request.node_count, options.min_nodes);
    EXPECT_LE(spec.request.node_count, options.max_nodes);
    // Durations 0.5-4 h at 50 ms/iteration => 36k-288k iterations.
    EXPECT_GE(spec.iterations, 30000u);
    EXPECT_LE(spec.iterations, 300000u);
    EXPECT_NO_THROW(spec.request.validate());
    previous = spec.arrival_hours;
  }
}

TEST(JobTraceTest, ArrivalRateApproximatelyPoisson) {
  util::Rng rng(2);
  JobTraceOptions options = small_trace_options();
  options.horizon_hours = 500.0;
  options.arrivals_per_hour = 2.0;
  const auto trace = generate_job_trace(rng, options);
  EXPECT_NEAR(static_cast<double>(trace.size()), 1000.0, 120.0);
}

TEST(JobTraceTest, DeterministicPerSeed) {
  util::Rng rng1(3);
  util::Rng rng2(3);
  const auto a = generate_job_trace(rng1, small_trace_options());
  const auto b = generate_job_trace(rng2, small_trace_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_hours, b[i].arrival_hours);
    EXPECT_EQ(a[i].request.workload, b[i].request.workload);
  }
}

TEST(FacilityManagerTest, RunsTraceToCompletion) {
  sim::Cluster cluster(12);
  util::Rng rng(5);
  const auto trace = generate_job_trace(rng, small_trace_options());
  FacilityManager manager(cluster, small_facility_options());
  const FacilityResult result = manager.run(trace);
  EXPECT_EQ(result.jobs.size(), trace.size());
  EXPECT_GT(result.completed_jobs, 0u);
  EXPECT_EQ(result.power_watts.size(), result.utilization.size());
  EXPECT_GT(result.total_energy_joules, 0.0);
  // Short jobs on a 48 h horizon: the vast majority complete.
  EXPECT_GE(result.completed_jobs, trace.size() / 2);
}

TEST(FacilityManagerTest, PowerTraceBracketedByIdleAndBudget) {
  sim::Cluster cluster(12);
  util::Rng rng(7);
  const auto trace = generate_job_trace(rng, small_trace_options());
  const FacilityOptions options = small_facility_options();
  FacilityManager manager(cluster, options);
  const FacilityResult result = manager.run(trace);
  const double idle_floor =
      static_cast<double>(cluster.size()) * options.idle_node_watts;
  const double ceiling =
      static_cast<double>(cluster.size()) * cluster.node(0).tdp();
  for (double sample : result.power_watts) {
    EXPECT_GE(sample, idle_floor * 0.99);
    EXPECT_LE(sample, ceiling * 1.01);
  }
}

TEST(FacilityManagerTest, JobRecordsAreCausal) {
  sim::Cluster cluster(12);
  util::Rng rng(9);
  const auto trace = generate_job_trace(rng, small_trace_options());
  FacilityManager manager(cluster, small_facility_options());
  const FacilityResult result = manager.run(trace);
  for (const auto& job : result.jobs) {
    if (job.started()) {
      EXPECT_GE(job.start_hours, job.arrival_hours - 0.26);
      EXPECT_GE(job.wait_hours(), -0.26);
    }
    if (job.finished()) {
      EXPECT_TRUE(job.started());
      EXPECT_GT(job.finish_hours, job.start_hours);
      EXPECT_GT(job.energy_joules, 0.0);
    }
  }
  EXPECT_GE(result.mean_wait_hours(), 0.0);
}

TEST(FacilityManagerTest, UtilizationReflectsLoad) {
  sim::Cluster cluster(12);
  util::Rng rng(11);
  JobTraceOptions heavy = small_trace_options();
  heavy.arrivals_per_hour = 4.0;
  const auto trace = generate_job_trace(rng, heavy);
  FacilityManager manager(cluster, small_facility_options());
  const FacilityResult result = manager.run(trace);
  EXPECT_GT(result.mean_utilization(), 0.3);
  EXPECT_LE(result.mean_utilization(), 1.0);
}

TEST(FacilityManagerTest, TightBudgetLowersPowerCeiling) {
  util::Rng rng(13);
  const auto trace = generate_job_trace(rng, small_trace_options());

  sim::Cluster generous_cluster(12);
  FacilityOptions generous = small_facility_options();
  FacilityManager generous_manager(generous_cluster, generous);
  const FacilityResult generous_result = generous_manager.run(trace);

  sim::Cluster tight_cluster(12);
  FacilityOptions tight = small_facility_options();
  tight.system_budget_watts = 170.0 * 12.0;
  FacilityManager tight_manager(tight_cluster, tight);
  const FacilityResult tight_result = tight_manager.run(trace);

  EXPECT_LT(tight_result.peak_power_watts(),
            generous_result.peak_power_watts());
}

TEST(FacilityManagerTest, UnsortedTraceRejected) {
  sim::Cluster cluster(4);
  FacilityManager manager(cluster, small_facility_options());
  std::vector<FacilityJobSpec> trace(2);
  trace[0].arrival_hours = 5.0;
  trace[0].request = {"a", {}, 2};
  trace[1].arrival_hours = 1.0;
  trace[1].request = {"b", {}, 2};
  EXPECT_THROW(static_cast<void>(manager.run(trace)), ps::InvalidArgument);
}

TEST(FacilityManagerTest, InvalidOptionsRejected) {
  sim::Cluster cluster(4);
  FacilityOptions bad = small_facility_options();
  bad.step_hours = 0.0;
  EXPECT_THROW(FacilityManager(cluster, bad), ps::InvalidArgument);
  bad = small_facility_options();
  bad.horizon_hours = 0.01;
  EXPECT_THROW(FacilityManager(cluster, bad), ps::InvalidArgument);
  util::Rng rng(1);
  // A zero rate is a valid empty trace (trace_hardening_test.cpp); only
  // a genuinely malformed rate is refused.
  JobTraceOptions bad_trace = small_trace_options();
  bad_trace.arrivals_per_hour = -1.0;
  EXPECT_THROW(static_cast<void>(generate_job_trace(rng, bad_trace)),
               ps::InvalidArgument);
  bad_trace = small_trace_options();
  bad_trace.min_duration_hours = 0.0;
  EXPECT_THROW(static_cast<void>(generate_job_trace(rng, bad_trace)),
               ps::InvalidArgument);
}

TEST(FacilityManagerTest, GpuNodesRejected) {
  // Job characterization fills no GPU field, so the facility could
  // neither program nor budget a GPU node's caps: such a cluster is
  // refused up front, naming the missing characterization.
  sim::Cluster cluster(4);
  cluster.node(2).attach_gpu();
  try {
    FacilityManager manager(cluster, small_facility_options());
    FAIL() << "a cluster with a GPU node was accepted";
  } catch (const ps::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("characterize_job"),
              std::string::npos)
        << error.what();
  }
  sim::Cluster cpu_only(4);
  EXPECT_NO_THROW(FacilityManager(cpu_only, small_facility_options()));
}

}  // namespace
}  // namespace ps::facility
