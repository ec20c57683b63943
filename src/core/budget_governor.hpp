#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "rm/power_manager.hpp"

namespace ps::sim {
struct FacilityTrace;
}

namespace ps::core {

/// One renegotiated system budget, as pushed down the RM -> runtime
/// hierarchy. `epoch` is the renegotiation epoch: strictly monotone, so
/// every layer can reject caps computed under a superseded budget, and a
/// restarted daemon can prove its snapshot is not older than what the
/// clients already heard.
struct BudgetRevision {
  std::uint64_t epoch = 0;      ///< Renegotiation epoch (strictly monotone).
  double budget_watts = 0.0;    ///< The revised system budget.
  /// Coordination epoch (loop epoch / daemon sample sequence) at which
  /// the revision takes effect, for pre-computed schedules.
  std::size_t at_epoch = 0;
  /// Set when the drop was large enough to demand an immediate clamp
  /// rather than waiting for the next allocation round.
  bool emergency = false;

  [[nodiscard]] bool operator==(const BudgetRevision&) const = default;
};

/// Knobs of the budget governor (Fig. 1's moving envelope turned into a
/// control signal the stack can actually follow).
struct BudgetGovernorOptions {
  /// Signal moves smaller than this never produce a revision — metering
  /// noise must not churn every runtime's caps.
  double hysteresis_watts = 8.0;
  /// Ramp-rate limit for budget *increases* per observation; watts freed
  /// by the facility come back gradually so the policies re-converge
  /// instead of slamming every host to TDP. 0 disables the limit.
  double max_raise_watts = 0.0;
  /// Ramp-rate limit for budget *decreases* per observation. 0 (the
  /// default) disables it: shrinking envelopes are a safety matter and
  /// apply at once.
  double max_lower_watts = 0.0;
  /// The governor never revises below this (the cluster's own floor:
  /// idle draw plus per-host settable minimums).
  double floor_watts = 1.0;
  /// A single drop larger than this fraction of the current budget marks
  /// the revision `emergency` (brownout / tripped feeder, not drift).
  double emergency_drop_fraction = 0.15;
};

/// Turns a time-varying facility budget signal into epoch-numbered
/// BudgetRevisions with hysteresis and ramp-rate limiting. The governor
/// is the single producer of renegotiation epochs: every revision it
/// emits carries the next strictly-increasing epoch number.
class BudgetGovernor {
 public:
  explicit BudgetGovernor(double initial_budget_watts,
                          const BudgetGovernorOptions& options = {});

  /// Observes one sample of the budget signal. Returns the revision to
  /// apply at coordination epoch `at_epoch`, or nullopt when hysteresis
  /// swallowed the move. Ramp-limited moves keep stepping toward the
  /// signal on subsequent observations even if the signal holds still.
  [[nodiscard]] std::optional<BudgetRevision> observe(double signal_watts,
                                                      std::size_t at_epoch);

  [[nodiscard]] double budget_watts() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const BudgetGovernorOptions& options() const noexcept {
    return options_;
  }

 private:
  BudgetGovernorOptions options_;
  double budget_;
  std::uint64_t epoch_ = 0;
};

/// Samples a cluster budget signal out of a facility trace: the cluster
/// may spend `cluster_share` of the facility's headroom (rating minus the
/// rest of the facility's draw, which the trace stands in for), never
/// below `floor_watts`. Resamples the trace evenly onto `samples` points.
[[nodiscard]] std::vector<double> budget_signal_from_trace(
    const sim::FacilityTrace& trace, double cluster_share,
    std::size_t samples, double floor_watts);

/// Runs a whole signal through a governor: one observation per sample,
/// revision i effective at coordination epoch i. The result is sorted by
/// at_epoch with strictly increasing epochs — directly consumable by
/// CoordinationLoop::run_dynamic and DaemonOptions::budget_revisions.
[[nodiscard]] std::vector<BudgetRevision> make_budget_schedule(
    double initial_budget_watts, std::span<const double> signal_watts,
    const BudgetGovernorOptions& options = {});

/// A pre-computed budget schedule and the cursor of its next entry: the
/// one place scheduled revisions are validated, walked and adopted. The
/// loop adopts the entries due at epoch e before that epoch runs; a
/// daemon before the round that consumes sample sequence e + 1.
class RevisionSchedule {
 public:
  /// Rejects a non-positive budget or entries out of at_epoch order. The
  /// entries are viewed, not copied.
  explicit RevisionSchedule(std::span<const BudgetRevision> revisions);

  /// Passes over the entries a restored snapshot or promoted standby has
  /// already adopted (epochs not newer than `adopted_epoch`).
  void skip_adopted(std::uint64_t adopted_epoch);

  /// Adopts every entry with at_epoch <= `epoch` into `manager`, in
  /// order: each is checked for epoch monotonicity under `where`, then
  /// reported with whether set_budget adopted it.
  void adopt_due(
      std::size_t epoch, rm::SystemPowerManager& manager,
      std::string_view where,
      const std::function<void(const BudgetRevision&, bool adopted)>&
          on_revision);

 private:
  std::span<const BudgetRevision> revisions_;
  std::size_t next_ = 0;
};

}  // namespace ps::core
