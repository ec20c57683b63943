// The end-to-end benchmark runner: one process, one closed-loop workload
// per invocation.
//
//   perfbench_runner --workload paper_grid|facility_week|root_fleet
//                    --seed N --seconds S --trace 0|1
//
// Prints notes, then one JSON line (the last line of stdout). Exits 0 when
// every output check passed, 1 when one failed, 2 on a usage error or an
// unexpected exception (no JSON line then).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options =
        parse_options(std::vector<std::string>(argv + 1, argv + argc));
    // Count mode: a violation is recorded (and fails the run's checks)
    // instead of aborting mid-measurement.
    ps::core::invariants::set_mode(ps::core::invariants::Mode::kCount);
    ps::core::invariants::reset();

    Report report;
    if (options.workload == "paper_grid") {
      report = run_paper_grid(options);
    } else if (options.workload == "facility_week") {
      report = run_facility_week(options);
    } else if (options.workload == "root_fleet") {
      report = run_root_fleet(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }

    if (options.trace) {
      complete_per_layer(report);
    }
    const ps::core::invariants::Stats invariants =
        ps::core::invariants::stats();
    report.note("invariant checks: " + std::to_string(invariants.checks) +
                ", violations: " + std::to_string(invariants.violations));
    if (invariants.violations != 0) {
      report.fail_check("core::invariants violation: " +
                        ps::core::invariants::last_violation());
    }
    if (report.failed != 0) {
      report.correct = false;
    }
    for (const std::string& line : report.notes) {
      std::printf("# %s\n", line.c_str());
    }
    std::printf("%s\n", report.to_json().c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_runner: %s\n", error.what());
    return 2;
  }
}
