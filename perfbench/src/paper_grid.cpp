// paper_grid: the Fig. 8 savings grid at paper scale (100 nodes/job, 100
// measured iterations), every mix x {min, ideal, max} x {StaticCaps,
// MinimizeWaste, JobAdaptive, MixedAdaptive}, run serially in-process.
//
// A pass is what fig08_savings_grid --jobs 1 does: build the experiment
// driver (cluster + frequency binning), prepare (characterize) every mix,
// run each cell once, and derive the savings CSV. Set-up is the driver
// plus the prepares; a unit is one MixExperiment::run cell. Every pass
// has a fresh seed and freshly prepared experiments, so no cell is a
// warm re-run of an earlier one.
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/export.hpp"
#include "core/mixes.hpp"
#include "core/policy.hpp"
#include "rm/power_manager.hpp"
#include "rm/scheduler.hpp"
#include "sha256.hpp"
#include "sim/job_sim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ps;

/// fig08_savings_grid's default seed, and the SHA-256 of the CSV it
/// writes for the full grid at that seed (any --jobs count).
constexpr std::uint64_t kCanonicalSeed = 42;
constexpr std::string_view kCanonicalCsvSha256 =
    "0f7e36f71937945c35faf76d165a7e2a45d7e85bb2640b14ba3b686871f8e059";

const core::PolicyKind kGridPolicies[] = {
    core::PolicyKind::kStaticCaps, core::PolicyKind::kMinimizeWaste,
    core::PolicyKind::kJobAdaptive, core::PolicyKind::kMixedAdaptive};

/// Times every allocate() of the stock policy it wraps. Passed to
/// run_with under the stock label, so the cell keeps its noise seed and
/// its result is bit-identical to run().
class TimingPolicy final : public core::Policy {
 public:
  explicit TimingPolicy(std::unique_ptr<core::Policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool is_system_aware() const noexcept override {
    return inner_->is_system_aware();
  }
  [[nodiscard]] bool is_application_aware() const noexcept override {
    return inner_->is_application_aware();
  }
  [[nodiscard]] rm::PowerAllocation allocate(
      const core::PolicyContext& context) const override {
    const auto start = Clock::now();
    rm::PowerAllocation allocation = inner_->allocate(context);
    last_us = seconds_since(start) * 1e6;
    ++calls;
    last_allocation = allocation;
    return allocation;
  }

  mutable double last_us = 0.0;
  mutable std::size_t calls = 0;
  mutable rm::PowerAllocation last_allocation;

 private:
  std::unique_ptr<core::Policy> inner_;
};

/// Per-layer samples, collected on traced passes only.
struct Layers {
  std::vector<double> prepare_ms;
  std::vector<double> cell_ms;
  std::vector<double> allocate_us;
  std::vector<double> iteration_us;
  std::vector<double> cell_self_ms;
  std::vector<double> unattributed_pct;
  std::size_t allocate_calls_per_pass = 0;
};

analysis::ExperimentOptions experiment_options(std::uint64_t seed) {
  analysis::ExperimentOptions options;  // paper scale, Quartz variation
  options.seed = seed;
  options.characterization_iterations = 5;
  options.sweep_workers = 1;
  return options;
}

/// Replays a cell's simulator work outside the cell: the mix's jobs on
/// fresh clones of their granted nodes, under the cell's allocation, for
/// the cell's iteration count. Returns the mean microseconds per
/// JobSimulation::run_iteration and the replay's total in milliseconds.
std::pair<double, double> replay_iterations(
    analysis::ExperimentDriver& driver, const core::WorkloadMix& mix,
    const rm::PowerAllocation& allocation, double budget_watts) {
  const analysis::ExperimentOptions& options = driver.options();
  rm::Scheduler scheduler(driver.experiment_nodes());
  for (const auto& request : mix.jobs) {
    scheduler.submit(request);
  }
  const std::vector<rm::NodeGrant> grants = scheduler.start_pending();
  sim::Cluster& cluster = driver.cluster();
  std::vector<std::unique_ptr<hw::NodeModel>> nodes;
  std::vector<std::unique_ptr<sim::JobSimulation>> jobs;
  std::vector<sim::JobSimulation*> job_ptrs;
  util::Rng noise(options.seed);
  for (std::size_t j = 0; j < grants.size(); ++j) {
    std::vector<hw::NodeModel*> hosts;
    for (const std::size_t index : grants[j].node_indices) {
      nodes.push_back(std::make_unique<hw::NodeModel>(cluster.node(index)));
      hosts.push_back(nodes.back().get());
    }
    jobs.push_back(std::make_unique<sim::JobSimulation>(
        mix.jobs[j].name, std::move(hosts), mix.jobs[j].workload,
        sim::NoiseParams{options.noise_time_sigma}, noise.fork(j)));
    job_ptrs.push_back(jobs.back().get());
  }
  rm::SystemPowerManager(budget_watts)
      .apply(job_ptrs, allocation, /*enforce_budget=*/false);

  const auto start = Clock::now();
  for (sim::JobSimulation* job : job_ptrs) {
    for (std::size_t i = 0; i < options.iterations; ++i) {
      (void)job->run_iteration();
    }
  }
  const double total_s = seconds_since(start);
  const double iterations =
      static_cast<double>(job_ptrs.size() * options.iterations);
  return {total_s * 1e6 / iterations, total_s * 1e3};
}

/// Why a cell's output is wrong, or empty when it is well-formed.
std::string check_cell(const analysis::MixRunResult& result,
                       const core::WorkloadMix& mix, bool system_aware,
                       std::size_t iterations) {
  if (result.jobs.size() != mix.jobs.size()) {
    return "cell lost jobs";
  }
  if (system_aware && !result.within_budget) {
    return "system-aware policy exceeded the budget";
  }
  for (const analysis::JobRunMetrics& job : result.jobs) {
    if (!(job.elapsed_seconds > 0.0) || !std::isfinite(job.elapsed_seconds) ||
        !(job.energy_joules > 0.0) || !std::isfinite(job.energy_joules) ||
        job.iteration_seconds.size() != iterations) {
      return "job " + job.job_name + " has a malformed report";
    }
  }
  return {};
}

struct PassResult : Pass {
  std::string csv;
};

/// One full grid. `layers` non-null makes it a traced pass.
PassResult run_pass(std::uint64_t seed, Layers* layers, UnitLedger& ledger,
                    Report& report, bool corrupt_output) {
  PassResult pass;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();

  const analysis::ExperimentOptions options = experiment_options(seed);
  analysis::ExperimentDriver driver(options);
  const std::vector<core::MixKind> kinds = core::all_mix_kinds();
  std::vector<core::WorkloadMix> mixes;
  std::vector<analysis::MixExperiment> experiments;
  mixes.reserve(kinds.size());
  experiments.reserve(kinds.size());
  for (const core::MixKind kind : kinds) {
    mixes.push_back(core::make_mix(kind, options.nodes_per_job));
    const auto prepare_start = Clock::now();
    experiments.push_back(driver.prepare(mixes.back()));
    if (layers != nullptr) {
      layers->prepare_ms.push_back(seconds_since(prepare_start) * 1e3);
    }
  }
  pass.setup_s = seconds_since(start);

  const std::vector<core::BudgetLevel> levels = core::all_budget_levels();
  std::vector<std::vector<analysis::MixRunResult>> grid(kinds.size());
  std::size_t allocate_calls = 0;
  for (std::size_t m = 0; m < kinds.size(); ++m) {
    for (const core::BudgetLevel level : levels) {
      for (const core::PolicyKind kind : kGridPolicies) {
        TimingPolicy policy(core::make_policy(kind));
        pass.sample_host();
        const auto cell_start = Clock::now();
        bool ok = true;
        try {
          grid[m].push_back(layers != nullptr
                                ? experiments[m].run_with(level, policy, kind)
                                : experiments[m].run(level, kind));
        } catch (const std::exception& error) {
          ok = false;
          report.fail_check(std::string("cell threw: ") + error.what());
        }
        const double cell_ms = seconds_since(cell_start) * 1e3;
        pass.unit_ms.push_back(cell_ms);
        if (ok) {
          const std::string problem =
              check_cell(grid[m].back(), mixes[m], policy.is_system_aware(),
                         options.iterations);
          if (!problem.empty()) {
            ok = false;
            report.fail_check(grid[m].back().mix_name + ": " + problem);
          }
        }
        ledger.record(ok);
        if (layers != nullptr && ok) {
          allocate_calls += policy.calls;
          const double self_ms = cell_ms - policy.last_us * 1e-3;
          const auto [iteration_us, replay_ms] = replay_iterations(
              driver, mixes[m], policy.last_allocation,
              experiments[m].budgets().at(level));
          layers->cell_ms.push_back(cell_ms);
          layers->allocate_us.push_back(policy.last_us);
          layers->cell_self_ms.push_back(self_ms);
          layers->iteration_us.push_back(iteration_us);
          layers->unattributed_pct.push_back((self_ms - replay_ms) /
                                             cell_ms * 100.0);
        }
      }
    }
  }
  if (layers != nullptr) {
    layers->allocate_calls_per_pass = allocate_calls;
  }

  // The savings CSV, exactly as fig08_savings_grid derives and writes it.
  std::vector<analysis::SavingsRow> rows;
  for (std::size_t m = 0; m < kinds.size(); ++m) {
    if (grid[m].size() != levels.size() * 4) {
      continue;  // a failed cell, already reported
    }
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const analysis::MixRunResult& baseline = grid[m][l * 4];
      for (std::size_t p = 1; p < 4; ++p) {
        const analysis::SavingsSummary summary = analysis::compute_savings(
            grid[m][l * 4 + p], baseline,
            analysis::SavingsStatistics::kIntervalsOnly);
        if (!std::isfinite(summary.time.mean) ||
            !std::isfinite(summary.energy.mean)) {
          report.fail_check("non-finite savings in " + baseline.mix_name);
        }
        rows.push_back(analysis::SavingsRow{
            std::string(core::to_string(kinds[m])), kGridPolicies[p],
            levels[l], summary});
      }
    }
  }
  if (corrupt_output && !rows.empty()) {
    rows.front().savings.time.mean += 0.01;
  }
  std::ostringstream csv;
  analysis::write_savings_csv(csv, rows);
  pass.csv = csv.str();

  pass.wall_s = seconds_since(start);
  pass.cpu_s = cpu_seconds() - cpu_start;
  return pass;
}

}  // namespace

Report run_paper_grid(const Options& options) {
  Report report;
  UnitLedger ledger;

  // Output check: the canonical grid reproduces fig08's CSV bit for bit
  // (traced, in a traced run: the timing decorator must not move a bit).
  {
    Layers scratch;
    UnitLedger check_ledger;
    const PassResult canonical =
        run_pass(kCanonicalSeed, options.trace ? &scratch : nullptr,
                 check_ledger, report, options.inject_wrong_output);
    const std::string digest = sha256_hex(canonical.csv);
    report.note("canonical seed " + std::to_string(kCanonicalSeed) +
                " savings CSV sha256 " + digest);
    if (digest != kCanonicalCsvSha256) {
      report.fail_check("savings CSV differs from fig08_savings_grid's "
                        "(expected sha256 " +
                        std::string(kCanonicalCsvSha256) + ")");
    }
    if (check_ledger.failed() != 0) {
      report.fail_check("canonical grid had failed cells");
    }
  }

  PassTimings untraced;
  PassTimings traced;
  Layers layers;
  run_passes(options, untraced, traced,
             [&](std::uint64_t seed, std::size_t, bool traced_pass) -> Pass {
               return run_pass(seed, traced_pass ? &layers : nullptr, ledger,
                               report, false);
             });
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();
  report.note("cells attempted " + std::to_string(ledger.attempted()) +
              ", failed " + std::to_string(ledger.failed()));

  if (!options.trace) {
    add_end_to_end(untraced, report);
    return report;
  }
  const double self_ms = median(layers.cell_self_ms);
  const double unattributed = median(layers.unattributed_pct);
  report.note("cell = allocate + simulator iterations + " +
              format_number(unattributed) +
              "% unattributed (controller, agent, arena and report "
              "bookkeeping)");
  report.add("analysis.prepare_ms", median(layers.prepare_ms), "ms");
  report.add("analysis.cell_ms", median(layers.cell_ms), "ms");
  report.add("core.policy.allocate_us", median(layers.allocate_us), "us");
  report.add("core.policy.allocate_calls",
             static_cast<double>(layers.allocate_calls_per_pass), "count");
  report.add("sim.iteration_us", median(layers.iteration_us), "us");
  report.add("sim.cell_self_ms", self_ms, "ms");
  report.add("unit.unattributed_pct", unattributed, "%");
  add_trace_summary(untraced, traced, report);
  return report;
}

}  // namespace perfbench
