#pragma once

#include "common.hpp"

namespace perfbench {

/// The Fig. 8 grid at paper scale, serial and in-process.
[[nodiscard]] Report run_paper_grid(const Options& options);
/// One simulated week through the facility manager, once per policy.
[[nodiscard]] Report run_facility_week(const Options& options);
/// A root-mode power daemon driven by three rack aggregators.
[[nodiscard]] Report run_root_fleet(const Options& options);

}  // namespace perfbench
