#include "core/budget_governor.hpp"

#include <algorithm>
#include <cmath>

#include "core/invariants.hpp"
#include "sim/facility_trace.hpp"
#include "util/error.hpp"

namespace ps::core {

BudgetGovernor::BudgetGovernor(double initial_budget_watts,
                               const BudgetGovernorOptions& options)
    : options_(options), budget_(initial_budget_watts) {
  PS_REQUIRE(initial_budget_watts > 0.0,
             "initial budget must be positive");
  PS_REQUIRE(options.hysteresis_watts >= 0.0,
             "hysteresis cannot be negative");
  PS_REQUIRE(options.max_raise_watts >= 0.0,
             "raise ramp limit cannot be negative");
  PS_REQUIRE(options.max_lower_watts >= 0.0,
             "lower ramp limit cannot be negative");
  PS_REQUIRE(options.floor_watts > 0.0, "floor must be positive");
  PS_REQUIRE(options.floor_watts <= initial_budget_watts,
             "floor exceeds the initial budget");
  PS_REQUIRE(options.emergency_drop_fraction > 0.0 &&
                 options.emergency_drop_fraction <= 1.0,
             "emergency drop fraction must be in (0, 1]");
}

std::optional<BudgetRevision> BudgetGovernor::observe(
    double signal_watts, std::size_t at_epoch) {
  PS_REQUIRE(std::isfinite(signal_watts) && signal_watts >= 0.0,
             "budget signal must be finite and non-negative");
  const double target = std::max(signal_watts, options_.floor_watts);
  const double move = target - budget_;
  if (std::abs(move) <= options_.hysteresis_watts) {
    return std::nullopt;  // metering noise, not a renegotiation
  }
  double next = target;
  if (move > 0.0 && options_.max_raise_watts > 0.0) {
    next = std::min(target, budget_ + options_.max_raise_watts);
  } else if (move < 0.0 && options_.max_lower_watts > 0.0) {
    next = std::max(target, budget_ - options_.max_lower_watts);
  }
  BudgetRevision revision;
  revision.epoch = ++epoch_;
  revision.budget_watts = next;
  revision.at_epoch = at_epoch;
  revision.emergency =
      budget_ - next > options_.emergency_drop_fraction * budget_;
  budget_ = next;
  return revision;
}

std::vector<double> budget_signal_from_trace(const sim::FacilityTrace& trace,
                                             double cluster_share,
                                             std::size_t samples,
                                             double floor_watts) {
  PS_REQUIRE(!trace.instantaneous_mw.empty(), "empty facility trace");
  PS_REQUIRE(cluster_share > 0.0 && cluster_share <= 1.0,
             "cluster share must be in (0, 1]");
  PS_REQUIRE(samples > 0, "need at least one signal sample");
  PS_REQUIRE(floor_watts > 0.0, "signal floor must be positive");
  std::vector<double> signal;
  signal.reserve(samples);
  const std::size_t n = trace.instantaneous_mw.size();
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t index = samples == 1 ? 0 : s * (n - 1) / (samples - 1);
    const double headroom_mw =
        trace.params.peak_rating_mw - trace.instantaneous_mw[index];
    signal.push_back(std::max(floor_watts,
                              cluster_share * headroom_mw * 1e6));
  }
  return signal;
}

std::vector<BudgetRevision> make_budget_schedule(
    double initial_budget_watts, std::span<const double> signal_watts,
    const BudgetGovernorOptions& options) {
  BudgetGovernor governor(initial_budget_watts, options);
  std::vector<BudgetRevision> schedule;
  for (std::size_t s = 0; s < signal_watts.size(); ++s) {
    if (auto revision = governor.observe(signal_watts[s], s)) {
      schedule.push_back(*revision);
    }
  }
  return schedule;
}

RevisionSchedule::RevisionSchedule(std::span<const BudgetRevision> revisions)
    : revisions_(revisions) {
  for (std::size_t r = 0; r < revisions.size(); ++r) {
    PS_REQUIRE(revisions[r].budget_watts > 0.0,
               "scheduled budget revision must be positive");
    PS_REQUIRE(r == 0 || revisions[r - 1].at_epoch <= revisions[r].at_epoch,
               "scheduled budget revisions must be sorted by at_epoch");
  }
}

void RevisionSchedule::skip_adopted(std::uint64_t adopted_epoch) {
  while (next_ < revisions_.size() &&
         revisions_[next_].epoch <= adopted_epoch) {
    ++next_;
  }
}

void RevisionSchedule::adopt_due(
    std::size_t epoch, rm::SystemPowerManager& manager,
    std::string_view where,
    const std::function<void(const BudgetRevision&, bool adopted)>&
        on_revision) {
  while (next_ < revisions_.size() && revisions_[next_].at_epoch <= epoch) {
    const BudgetRevision& revision = revisions_[next_++];
    invariants::check_epoch_monotone(manager.budget_epoch(), revision.epoch,
                                     where);
    on_revision(revision,
                manager.set_budget(revision.budget_watts, revision.epoch));
  }
}

}  // namespace ps::core
