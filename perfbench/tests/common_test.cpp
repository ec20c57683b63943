// The runner's own accounting: the tail-percentile rule, failed-over-
// attempted counting, the JSON line, and the command line.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "sha256.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) {
    values.push_back(static_cast<double>(i));  // unsorted on purpose
  }
  return values;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 95.0), 95.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(200), 95.0), 190.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(1), 95.0), 1.0);
  EXPECT_DOUBLE_EQ(median(one_to(5)), 3.0);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(one_to(3), 0.0), std::invalid_argument);
}

TEST(PercentileTest, SamplesBeyondCountStrictlyLargerRanks) {
  EXPECT_EQ(samples_beyond(200, 95.0), 10u);
  EXPECT_EQ(samples_beyond(199, 95.0), 9u);
  EXPECT_EQ(samples_beyond(100, 50.0), 50u);
  EXPECT_EQ(samples_beyond(0, 95.0), 0u);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  // 200 samples: exactly 10 beyond p95, 2 beyond p99.
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(199), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(40), 75.0);
  EXPECT_EQ(highest_supported_percentile(39), std::nullopt);
  EXPECT_EQ(highest_supported_percentile(200, 11), 90.0);
}

std::vector<double> scaled(std::vector<double> values, double factor) {
  for (double& value : values) {
    value *= factor;
  }
  return values;
}

TEST(EndToEndTest, ScalesEachPassToTheNominalHostSpeed) {
  // The same pass three times: at the nominal host speed, on a host twice
  // as slow and on one twice as fast. Its units sum to 5.05 s, its 100
  // reference samples to 0.1 s at the nominal speed, and it spends 0.45 s
  // elsewhere.
  const std::vector<double> units = one_to(100);
  const std::vector<double> samples(100, kReferenceNominalMs);
  const double sampling_s = 100 * kReferenceNominalMs * 1e-3;
  PassTimings timings;
  timings.add_pass({0.5, 0.5 + 5.05 + sampling_s + 0.45, 1.0, units,
                    samples});
  timings.add_pass({1.0, 2.0 * (0.5 + 5.05 + sampling_s + 0.45), 1.0,
                    scaled(units, 2.0), scaled(samples, 2.0)});
  timings.add_pass({0.2, 0.5 * (0.4 + 5.05 + sampling_s + 0.45), 1.0,
                    scaled(units, 0.5), scaled(samples, 0.5)});
  ASSERT_EQ(timings.units, 300u);
  EXPECT_DOUBLE_EQ(timings.speed[0], 1.0);
  EXPECT_DOUBLE_EQ(timings.speed[1], 0.5);
  EXPECT_DOUBLE_EQ(timings.speed[2], 2.0);
  const std::vector<double> walls = timings.nominal_wall_s();
  ASSERT_EQ(walls.size(), 3u);
  EXPECT_NEAR(walls[0], 6.0, 1e-9);
  EXPECT_NEAR(walls[1], 6.0, 1e-9);
  EXPECT_NEAR(walls[2], 5.9, 1e-9);

  Report report;
  add_end_to_end(timings, report);
  EXPECT_TRUE(report.correct);
  ASSERT_EQ(report.metrics.size(), 4u);
  EXPECT_EQ(report.metrics[0].name, "setup_s");
  EXPECT_DOUBLE_EQ(report.metrics[0].value, 0.5);
  EXPECT_EQ(report.metrics[1].name, "wall_s");
  EXPECT_NEAR(report.metrics[1].value, 6.0, 1e-9);
  EXPECT_EQ(report.metrics[2].name, "unit_p50_ms");
  EXPECT_DOUBLE_EQ(report.metrics[2].value, 50.0);
  EXPECT_EQ(report.metrics[3].name, "peak_rss_mb");
  // 300 units: 15 beyond the p95, whose nearest rank is the 285th.
  ASSERT_GE(report.notes.size(), 2u);
  EXPECT_NE(report.notes[0].find("units timed: 300 over 3 passes; p95 "
                                 "has 15 samples beyond it"),
            std::string::npos);
  EXPECT_NE(report.notes[1].find("unit p95 ms"), std::string::npos);
  EXPECT_NE(report.notes[1].find("): 95"), std::string::npos);

  PassTimings short_run;
  short_run.add_pass({0.5, 6.0, 1.0, one_to(150), samples});
  Report short_report;
  add_end_to_end(short_run, short_report);
  EXPECT_FALSE(short_report.correct);
}

TEST(EndToEndTest, ReferenceSamplesTimeTheHost) {
  const double sample = time_reference();
  EXPECT_GT(sample, 0.0);
  Pass pass;
  pass.sample_host();
  pass.sample_host();
  EXPECT_EQ(pass.reference_ms.size(), 2u);
  PassTimings timings;
  timings.add_pass(pass);
  EXPECT_GT(timings.speed[0], 0.0);
  EXPECT_GT(timings.reference_s[0], 0.0);
}

TEST(UnitLedgerTest, CountsFailedOverAttempted) {
  UnitLedger ledger;
  EXPECT_EQ(ledger.attempted(), 0u);
  ledger.record(true);
  ledger.record(false);
  ledger.record(true);
  ledger.record(true);
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 1u);
}

TEST(RunLoopTest, FixedWorkFirstButEveryRunEnds) {
  const auto now = Clock::now();
  // Inside the window: keep going.
  EXPECT_TRUE(want_another_pass(now, 10.0, 5, 3, 500, 200));
  // Window closed: only a missing minimum keeps the run going.
  const auto closed = now - std::chrono::seconds(11);
  EXPECT_FALSE(want_another_pass(closed, 10.0, 5, 3, 500, 200));
  EXPECT_TRUE(want_another_pass(closed, 10.0, 2, 3, 500, 200));
  EXPECT_TRUE(want_another_pass(closed, 10.0, 5, 3, 199, 200));
  // Past the hard cap a run ends even short of its minimum units.
  const auto capped = now - std::chrono::seconds(
                                static_cast<int>(kMaxRunSeconds) + 1);
  EXPECT_FALSE(want_another_pass(capped, 10.0, 2, 3, 0, 200));
}

TEST(ReportTest, JsonLineCarriesEveryDigit) {
  Report report;
  report.attempted = 12;
  report.failed = 1;
  report.add("latency_ms", 1.2034567891234, "ms");
  report.add("peak_rss_mb", 98.0, "MB");
  EXPECT_EQ(report.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567891234, "
            "\"unit\": \"ms\"}, \"peak_rss_mb\": {\"value\": 98, \"unit\": "
            "\"MB\"}}}");
  report.fail_check("bad caps");
  EXPECT_FALSE(report.correct);
  EXPECT_EQ(report.notes.back(), "CHECK FAILED: bad caps");
  EXPECT_THROW((void)format_number(std::nan("")), std::invalid_argument);
}

TEST(ReportTest, TracedReportsCarryTheWholeCatalog) {
  Report report;
  report.add("tracing.overhead_pct", 3.5, "%");
  report.add("analysis.cell_ms", 20.0, "ms");
  complete_per_layer(report);
  ASSERT_EQ(report.metrics.size(), per_layer_metrics().size());
  EXPECT_EQ(report.metrics.front().name, "analysis.prepare_ms");
  EXPECT_DOUBLE_EQ(report.metrics.front().value, 0.0);
  EXPECT_DOUBLE_EQ(report.metrics[1].value, 20.0);
  EXPECT_DOUBLE_EQ(report.metrics.back().value, 3.5);

  Report stray;
  stray.add("not.in.catalog", 1.0, "ms");
  EXPECT_THROW(complete_per_layer(stray), std::logic_error);
  Report wrong_unit;
  wrong_unit.add("analysis.cell_ms", 1.0, "s");
  EXPECT_THROW(complete_per_layer(wrong_unit), std::logic_error);
}

TEST(OptionsTest, ParsesTheContractFlags) {
  const Options options = parse_options({"--workload", "root_fleet", "--seed",
                                         "7", "--seconds", "10", "--trace",
                                         "1"});
  EXPECT_EQ(options.workload, "root_fleet");
  EXPECT_EQ(options.seed, 7u);
  EXPECT_DOUBLE_EQ(options.seconds, 10.0);
  EXPECT_TRUE(options.trace);
  EXPECT_FALSE(options.inject_wrong_output);
  EXPECT_THROW((void)parse_options({"--seed", "1"}), std::invalid_argument);
  EXPECT_THROW((void)parse_options({"--workload", "x", "--seed", "1x"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_options({"--workload", "x", "--trace", "2"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_options({"--workload", "x", "--sed", "1"}),
               std::invalid_argument);
}

TEST(SeedTest, PassSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(5, 0), derive_seed(5, 0));
  EXPECT_NE(derive_seed(5, 0), derive_seed(5, 1));
  EXPECT_NE(derive_seed(5, 0), derive_seed(6, 0));
}

TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block padding (56..63 tail bytes) and a multi-block message.
  EXPECT_EQ(sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(sha256_hex(std::string(1000, 'a')),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

}  // namespace
}  // namespace perfbench
