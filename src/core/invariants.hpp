#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace ps::core::invariants {

/// How a tripped invariant is reported. `kFatal` throws ps::InvalidState
/// at the check site (what CI runs); `kCount` records it and continues
/// (what a production site runs — power management must degrade, not
/// crash the resource manager). The initial mode comes from the
/// PS_INVARIANTS environment variable ("fatal" / "count"), default count.
enum class Mode { kCount, kFatal };

[[nodiscard]] Mode mode() noexcept;
void set_mode(Mode mode) noexcept;

struct Stats {
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
};

[[nodiscard]] Stats stats() noexcept;
/// The message of the most recent violation ("" when none tripped).
[[nodiscard]] std::string last_violation();
void reset() noexcept;

/// The primitive every named check funnels through: counts the check,
/// and on failure either throws (kFatal) or records and returns.
void check(bool ok, std::string_view what);

/// Σ programmed caps must fit the system budget plus the RAPL
/// quantization tolerance (0.5 W per host).
void check_caps_fit_budget(double total_caps_watts, double budget_watts,
                           std::size_t host_count, std::string_view where);

/// floor <= cap <= job TDP, each side with `tolerance_watts` slack.
void check_cap_bounds(double cap_watts, double floor_watts,
                      double tdp_watts, double tolerance_watts,
                      std::string_view where);

/// Renegotiation epochs are strictly monotone.
void check_epoch_monotone(std::uint64_t previous_epoch,
                          std::uint64_t next_epoch, std::string_view where);

/// Watt conservation on reclaim: the watts a departing job frees plus
/// the watts still programmed must equal the pre-reclaim total.
void check_watts_conserved(double before_watts, double freed_watts,
                           double after_watts, double tolerance_watts,
                           std::string_view where);

/// One job's allocation seen through the multi-tenant degradation lens.
/// `rank` is sim::sla_rank of the job's class (0 sheds first);
/// `guaranteed_watts` is the job's performance-preserving demand
/// (needed caps, never below its floors).
struct ClassAllocationView {
  std::size_t rank = 0;
  double allocated_watts = 0.0;
  double floor_watts = 0.0;
  double guaranteed_watts = 0.0;
  double tolerance_watts = 0.0;  ///< RAPL quantization slack for the job.
};

/// Per-class budget conservation: the class sums must add up to the
/// programmed total (degradation re-divides watts, never mints them) and
/// the total must fit max(budget, floors) plus the RAPL tolerance.
void check_class_budget_conserved(std::span<const ClassAllocationView> jobs,
                                  double total_caps_watts,
                                  double budget_watts,
                                  std::string_view where);

/// No class inversion: a job starved below its guaranteed watts may only
/// coexist with *lower*-class jobs that sit at their floors — a lower
/// class must never hold discretionary watts a higher class needs.
/// Linear in the job count: one pass finds the lowest rank holding watts
/// above its floor, a second flags the first starved job ranked above it,
/// and only a violation rescans for the holder to name. The message is the
/// pair a job-by-job quadratic scan meets first; that scan is kept as the
/// oracle in tests/core/class_invariants_test.cpp.
void check_no_class_inversion(std::span<const ClassAllocationView> jobs,
                              std::string_view where);

}  // namespace ps::core::invariants
