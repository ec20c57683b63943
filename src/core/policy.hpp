#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "rm/allocation.hpp"
#include "runtime/characterization.hpp"

namespace ps::core {

/// Everything a policy may consult when allocating power (paper
/// Section III): the site's budget, the node hardware limits, and the
/// per-job characterization data supplied by the job runtime.
struct PolicyContext {
  double system_budget_watts = 0.0;
  /// Context-wide node TDP fallback. Jobs whose characterization carries
  /// its own node_tdp_watts (> 0) use that instead — hosts of different
  /// jobs need not share a TDP (see job_tdp_watts()).
  double node_tdp_watts = 256.0;
  /// Node power that exists below the settable package floor (the DRAM
  /// plane). Surplus-distribution weights measure "distance from the
  /// minimum settable power limit" against the package floor, i.e.
  /// (allocated - (min_settable - uncappable)).
  double uncappable_watts = 16.0;
  std::vector<runtime::JobCharacterization> jobs;

  [[nodiscard]] std::size_t total_hosts() const;
  /// Uniform per-host share of the system budget.
  [[nodiscard]] double uniform_share_watts() const;
  /// Highest settable node cap for job `j`: its characterized per-job TDP
  /// when known, else the context-wide node_tdp_watts — raised, if
  /// necessary, to the job's min settable cap so the fallback can never
  /// invert the [min, TDP] clamp range of a job whose floor exceeds the
  /// context-wide default (e.g. a GPU-heavy node set).
  [[nodiscard]] double job_tdp_watts(std::size_t j) const;
  /// True when any job carries GPU-domain characterization.
  [[nodiscard]] bool has_gpu_domain() const;
  void validate() const;
};

/// A system-level power management policy: turns characterization data and
/// a system budget into per-host power caps.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True if the policy respects / exploits the system-wide power budget.
  [[nodiscard]] virtual bool is_system_aware() const noexcept = 0;

  /// True if the policy uses performance-aware (balancer) characterization.
  [[nodiscard]] virtual bool is_application_aware() const noexcept = 0;

  [[nodiscard]] virtual rm::PowerAllocation allocate(
      const PolicyContext& context) const = 0;
};

/// The five policies evaluated in the paper, in its presentation order,
/// plus the heterogeneous extension (not part of the paper's figure
/// grids — all_policy_kinds() deliberately excludes it).
enum class PolicyKind {
  kPrecharacterized,
  kStaticCaps,
  kMinimizeWaste,
  kJobAdaptive,
  kMixedAdaptive,
  kHeteroAdaptive,
};

[[nodiscard]] std::string_view to_string(PolicyKind kind) noexcept;
[[nodiscard]] std::unique_ptr<Policy> make_policy(PolicyKind kind);
/// The paper's five policies (figure grids); excludes kHeteroAdaptive.
[[nodiscard]] std::vector<PolicyKind> all_policy_kinds();
/// The kind whose to_string matches `name`, ignoring case; every kind is
/// accepted, kHeteroAdaptive included. nullopt for an unknown name.
[[nodiscard]] std::optional<PolicyKind> parse_policy_kind(
    std::string_view name);

}  // namespace ps::core
