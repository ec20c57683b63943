#include "core/invariants.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace ps::core::invariants {
namespace {

std::atomic<Mode> g_mode{[] {
  const char* env = std::getenv("PS_INVARIANTS");
  if (env != nullptr && std::string_view(env) == "fatal") {
    return Mode::kFatal;
  }
  return Mode::kCount;
}()};

std::atomic<std::uint64_t> g_checks{0};
std::atomic<std::uint64_t> g_violations{0};

std::mutex g_last_mutex;
std::string g_last_violation;  // guarded by g_last_mutex

void record_violation(std::string_view what) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(g_last_mutex);
    g_last_violation.assign(what);
  }
  if (g_mode.load(std::memory_order_relaxed) == Mode::kFatal) {
    throw InvalidState(std::string("invariant violated: ") + std::string(what));
  }
}

}  // namespace

Mode mode() noexcept { return g_mode.load(std::memory_order_relaxed); }

void set_mode(Mode mode) noexcept {
  g_mode.store(mode, std::memory_order_relaxed);
}

Stats stats() noexcept {
  Stats out;
  out.checks = g_checks.load(std::memory_order_relaxed);
  out.violations = g_violations.load(std::memory_order_relaxed);
  return out;
}

std::string last_violation() {
  const std::lock_guard<std::mutex> lock(g_last_mutex);
  return g_last_violation;
}

void reset() noexcept {
  g_checks.store(0, std::memory_order_relaxed);
  g_violations.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(g_last_mutex);
  g_last_violation.clear();
}

void check(bool ok, std::string_view what) {
  g_checks.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    record_violation(what);
  }
}

void check_caps_fit_budget(double total_caps_watts, double budget_watts,
                           std::size_t host_count, std::string_view where) {
  const double tolerance = 0.5 * static_cast<double>(host_count);
  const bool ok = total_caps_watts <= budget_watts + tolerance;
  if (ok) {
    check(true, {});
    return;
  }
  std::ostringstream message;
  message << where << ": programmed " << total_caps_watts
          << " W exceeds budget " << budget_watts << " W + tolerance "
          << tolerance << " W";
  check(false, message.str());
}

void check_cap_bounds(double cap_watts, double floor_watts, double tdp_watts,
                      double tolerance_watts, std::string_view where) {
  const bool ok = cap_watts >= floor_watts - tolerance_watts &&
                  cap_watts <= tdp_watts + tolerance_watts;
  if (ok) {
    check(true, {});
    return;
  }
  std::ostringstream message;
  message << where << ": cap " << cap_watts << " W outside [" << floor_watts
          << ", " << tdp_watts << "] W (tolerance " << tolerance_watts << ")";
  check(false, message.str());
}

void check_epoch_monotone(std::uint64_t previous_epoch,
                          std::uint64_t next_epoch, std::string_view where) {
  if (next_epoch > previous_epoch) {
    check(true, {});
    return;
  }
  std::ostringstream message;
  message << where << ": budget epoch " << next_epoch
          << " does not advance past " << previous_epoch;
  check(false, message.str());
}

void check_watts_conserved(double before_watts, double freed_watts,
                           double after_watts, double tolerance_watts,
                           std::string_view where) {
  const double drift = before_watts - (freed_watts + after_watts);
  if (drift <= tolerance_watts && drift >= -tolerance_watts) {
    check(true, {});
    return;
  }
  std::ostringstream message;
  message << where << ": reclaim lost " << drift << " W (" << before_watts
          << " before, " << freed_watts << " freed, " << after_watts
          << " after)";
  check(false, message.str());
}

void check_class_budget_conserved(std::span<const ClassAllocationView> jobs,
                                  double total_caps_watts,
                                  double budget_watts,
                                  std::string_view where) {
  double class_sum = 0.0;
  double floors = 0.0;
  double tolerance = 0.0;
  for (const ClassAllocationView& job : jobs) {
    class_sum += job.allocated_watts;
    floors += job.floor_watts;
    tolerance += job.tolerance_watts;
  }
  const double drift = class_sum - total_caps_watts;
  const bool conserved = drift <= tolerance && drift >= -tolerance;
  const bool fits =
      total_caps_watts <= std::max(budget_watts, floors) + tolerance;
  if (conserved && fits) {
    check(true, {});
    return;
  }
  std::ostringstream message;
  message << where << ": per-class sums " << class_sum
          << " W vs programmed total " << total_caps_watts << " W, budget "
          << budget_watts << " W, floors " << floors << " W (tolerance "
          << tolerance << ")";
  check(false, message.str());
}

void check_no_class_inversion(std::span<const ClassAllocationView> jobs,
                              std::string_view where) {
  const auto starved = [](const ClassAllocationView& job) {
    // Negated, so a NaN allocation counts as starved.
    return !(job.allocated_watts >= job.guaranteed_watts - job.tolerance_watts);
  };
  const auto holds_above_floor = [](const ClassAllocationView& job) {
    return job.allocated_watts > job.floor_watts + job.tolerance_watts;
  };
  // A starved job is inverted exactly when some job ranked below it holds
  // watts above its floor, i.e. when the lowest such holder rank is below
  // its own — one pass for that rank, one for the first starved job above
  // it, so the check stays linear when most jobs are starved.
  std::optional<std::size_t> lowest_holder_rank;
  for (const ClassAllocationView& job : jobs) {
    if (holds_above_floor(job) &&
        (!lowest_holder_rank || job.rank < *lowest_holder_rank)) {
      lowest_holder_rank = job.rank;
    }
  }
  if (lowest_holder_rank) {
    for (const ClassAllocationView& victim : jobs) {
      if (!starved(victim) || victim.rank <= *lowest_holder_rank) {
        continue;
      }
      // Name the first holder below the victim in job order, the pair a
      // job-by-job scan meets first.
      const ClassAllocationView& holder = *std::find_if(
          jobs.begin(), jobs.end(), [&](const ClassAllocationView& job) {
            return job.rank < victim.rank && holds_above_floor(job);
          });
      std::ostringstream message;
      message << where << ": class inversion — a rank-" << victim.rank
              << " job holds " << victim.allocated_watts
              << " W (guaranteed " << victim.guaranteed_watts
              << " W) while a rank-" << holder.rank << " job holds "
              << holder.allocated_watts << " W above its floor "
              << holder.floor_watts << " W";
      check(false, message.str());
      return;
    }
  }
  check(true, {});
}

}  // namespace ps::core::invariants
