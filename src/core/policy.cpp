#include "core/policy.hpp"

#include "core/policies.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::core {

std::size_t PolicyContext::total_hosts() const {
  std::size_t total = 0;
  for (const auto& job : jobs) {
    total += job.host_count;
  }
  return total;
}

double PolicyContext::uniform_share_watts() const {
  const std::size_t hosts = total_hosts();
  PS_CHECK_STATE(hosts > 0, "context has no hosts");
  return system_budget_watts / static_cast<double>(hosts);
}

double PolicyContext::job_tdp_watts(std::size_t j) const {
  PS_REQUIRE(j < jobs.size(), "job index out of range");
  const double per_job = jobs[j].node_tdp_watts;
  if (per_job > 0.0) {
    return per_job;
  }
  // The context-wide fallback is a guess; never let it fall below the
  // job's own settable floor, which would invert every [min, TDP] clamp
  // downstream (emergency clamps would then *raise* caps of floored
  // hosts).
  return std::max(node_tdp_watts, jobs[j].min_settable_cap_watts);
}

bool PolicyContext::has_gpu_domain() const {
  for (const auto& job : jobs) {
    if (job.has_gpu_domain()) {
      return true;
    }
  }
  return false;
}

void PolicyContext::validate() const {
  PS_REQUIRE(system_budget_watts > 0.0, "system budget must be positive");
  PS_REQUIRE(node_tdp_watts > 0.0, "node TDP must be positive");
  PS_REQUIRE(!jobs.empty(), "context needs at least one job");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& job = jobs[j];
    PS_REQUIRE(job.host_count > 0, "job needs at least one host");
    PS_REQUIRE(job.monitor.host_average_power_watts.size() == job.host_count,
               "monitor characterization host count mismatch");
    PS_REQUIRE(job.balancer.host_needed_power_watts.size() == job.host_count,
               "balancer characterization host count mismatch");
    PS_REQUIRE(job.node_tdp_watts >= 0.0,
               "per-job node TDP cannot be negative");
    // Validate against the *raw* effective TDP: job_tdp_watts() saturates
    // its fallback at the settable floor (so unvalidated emergency paths
    // never see an inverted clamp range), which would mask exactly the
    // inconsistency this check exists to reject.
    const double raw_tdp =
        job.node_tdp_watts > 0.0 ? job.node_tdp_watts : node_tdp_watts;
    PS_REQUIRE(job.min_settable_cap_watts > 0.0 &&
                   job.min_settable_cap_watts <= raw_tdp,
               "min settable cap must be in (0, TDP]");
    PS_REQUIRE(job.host_gpu_needed_watts.size() ==
                   job.host_gpu_observed_watts.size(),
               "GPU characterization vectors disagree in host count");
    if (job.has_gpu_domain()) {
      PS_REQUIRE(job.host_gpu_needed_watts.size() == job.host_count,
                 "GPU characterization host count mismatch");
      PS_REQUIRE(job.gpu_min_cap_watts > 0.0 &&
                     job.gpu_min_cap_watts <= job.gpu_tdp_watts,
                 "GPU min settable cap must be in (0, GPU TDP]");
    }
  }
}

std::string_view to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kPrecharacterized:
      return "Precharacterized";
    case PolicyKind::kStaticCaps:
      return "StaticCaps";
    case PolicyKind::kMinimizeWaste:
      return "MinimizeWaste";
    case PolicyKind::kJobAdaptive:
      return "JobAdaptive";
    case PolicyKind::kMixedAdaptive:
      return "MixedAdaptive";
    case PolicyKind::kHeteroAdaptive:
      return "HeteroAdaptive";
  }
  return "?";
}

std::unique_ptr<Policy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kPrecharacterized:
      return std::make_unique<PrecharacterizedPolicy>();
    case PolicyKind::kStaticCaps:
      return std::make_unique<StaticCapsPolicy>();
    case PolicyKind::kMinimizeWaste:
      return std::make_unique<MinimizeWastePolicy>();
    case PolicyKind::kJobAdaptive:
      return std::make_unique<JobAdaptivePolicy>();
    case PolicyKind::kMixedAdaptive:
      return std::make_unique<MixedAdaptivePolicy>();
    case PolicyKind::kHeteroAdaptive:
      return std::make_unique<HeteroAdaptivePolicy>();
  }
  throw InvalidArgument("unknown policy kind");
}

std::vector<PolicyKind> all_policy_kinds() {
  return {PolicyKind::kPrecharacterized, PolicyKind::kStaticCaps,
          PolicyKind::kMinimizeWaste, PolicyKind::kJobAdaptive,
          PolicyKind::kMixedAdaptive};
}

std::optional<PolicyKind> parse_policy_kind(std::string_view name) {
  for (PolicyKind kind :
       {PolicyKind::kPrecharacterized, PolicyKind::kStaticCaps,
        PolicyKind::kMinimizeWaste, PolicyKind::kJobAdaptive,
        PolicyKind::kMixedAdaptive, PolicyKind::kHeteroAdaptive}) {
    if (util::iequals(name, to_string(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

}  // namespace ps::core
