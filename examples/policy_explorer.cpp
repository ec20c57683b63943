// Interactive-ish CLI for exploring the experiment grid: pick a workload
// mix, a budget level, and a policy; see the allocation and measured
// outcome next to the StaticCaps baseline.
//
//   ./policy_explorer <mix> <budget> <policy> [--nodes N]
//   ./policy_explorer WastefulPower max MixedAdaptive
//   ./policy_explorer --list
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "analysis/experiment.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace ps;

std::optional<core::MixKind> parse_mix(std::string_view name) {
  for (core::MixKind kind : core::all_mix_kinds()) {
    if (util::iequals(name, core::to_string(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<core::BudgetLevel> parse_budget(std::string_view name) {
  for (core::BudgetLevel level : core::all_budget_levels()) {
    if (util::iequals(name, core::to_string(level))) {
      return level;
    }
  }
  return std::nullopt;
}

void print_usage() {
  std::printf("usage: policy_explorer <mix> <budget> <policy> [--nodes N]\n");
  std::printf("  mixes:   ");
  for (core::MixKind kind : core::all_mix_kinds()) {
    std::printf("%s ", core::to_string(kind).data());
  }
  std::printf("\n  budgets: min ideal max\n  policies: ");
  for (core::PolicyKind kind : core::all_policy_kinds()) {
    std::printf("%s ", core::to_string(kind).data());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "--list") {
    print_usage();
    return 0;
  }
  if (argc < 4) {
    print_usage();
    return 1;
  }
  const auto mix = parse_mix(argv[1]);
  const auto budget = parse_budget(argv[2]);
  const auto policy = core::parse_policy_kind(argv[3]);
  if (!mix || !budget || !policy) {
    print_usage();
    return 1;
  }
  std::size_t nodes = 12;
  for (int i = 4; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--nodes" && i + 1 < argc) {
      nodes = std::strtoul(argv[++i], nullptr, 10);
    }
  }

  analysis::ExperimentOptions options;
  options.nodes_per_job = nodes;
  options.iterations = 30;
  options.characterization_iterations = 4;
  analysis::ExperimentDriver driver(options);
  analysis::MixExperiment experiment =
      driver.prepare(core::make_mix(*mix, nodes));

  const analysis::MixRunResult baseline =
      experiment.run(*budget, core::PolicyKind::kStaticCaps);
  const analysis::MixRunResult run = experiment.run(*budget, *policy);

  std::printf("%s @ %s budget (%.1f kW for %zu hosts), policy %s\n\n",
              core::to_string(*mix).data(), core::to_string(*budget).data(),
              run.budget_watts / 1000.0, experiment.total_hosts(),
              core::to_string(*policy).data());

  util::TextTable table;
  table.add_column("Job", util::Align::kLeft);
  table.add_column("alloc W/node", util::Align::kRight, 1);
  table.add_column("drawn W/node", util::Align::kRight, 1);
  table.add_column("time vs static", util::Align::kRight, 2);
  table.add_column("energy vs static", util::Align::kRight, 2);
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    const auto& job = run.jobs[j];
    const auto& base = baseline.jobs[j];
    const double hosts =
        job.allocated_watts > 0.0
            ? static_cast<double>(
                  experiment.characterizations()[j].host_count)
            : 1.0;
    table.begin_row();
    table.add_cell(job.job_name);
    table.add_number(job.allocated_watts / hosts);
    table.add_number(job.average_node_power_watts);
    table.add_percent(job.elapsed_seconds / base.elapsed_seconds - 1.0);
    table.add_percent(job.energy_joules / base.energy_joules - 1.0);
  }
  std::printf("%s\n", table.to_string().c_str());

  const analysis::SavingsSummary savings =
      analysis::compute_savings(run, baseline);
  std::printf("Mix-level vs StaticCaps:  time %+.2f%%, energy %+.2f%%, "
              "EDP %+.2f%%, FLOPS/W %+.2f%%\n",
              -savings.time.mean * 100.0, -savings.energy.mean * 100.0,
              -savings.edp.mean * 100.0,
              savings.flops_per_watt.mean * 100.0);
  std::printf("Power: %.1f%% of budget%s\n",
              run.power_fraction_of_budget() * 100.0,
              run.within_budget ? "" : "  (EXCEEDS BUDGET)");
  return 0;
}
