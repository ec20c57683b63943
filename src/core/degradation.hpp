#pragma once

#include <span>
#include <string_view>

#include "core/control_round.hpp"
#include "core/policy.hpp"
#include "rm/allocation.hpp"

namespace ps::core {

/// True when the context's jobs span more than one SLA class — the only
/// case where class-ordered degradation can differ from the policy
/// output. Single-class mixes (every legacy caller) skip degradation
/// entirely, keeping their allocations bit-identical.
[[nodiscard]] bool has_multiple_sla_classes(const PolicyContext& context);

/// The shared multi-tenant degradation step the in-memory loop, the
/// daemon, and the facility manager all run on a policy output before
/// programming it. It never raises the allocation total and never
/// programs below a hardware floor; within that envelope it re-divides
/// min(budget, Σ caps) so that service classes degrade strictly in order:
///
///   1. every limit keeps its hardware floor (non-negotiable);
///   2. remaining watts satisfy performance-preserving needs (the
///      balancer's per-host needed watts) in class order,
///      latency_critical first — a class whose needs cannot all be met
///      is scaled proportionally and every class below it stays at its
///      floors;
///   3. watts still left (abundance) restore each limit's surplus above
///      need, again highest class first.
///
/// A limit is a host's CPU cap or, on a job whose allocation carries GPU
/// caps, a host's GPU cap; only hosts with GPU need carry the GPU floor.
/// The class invariants (per-class budget conservation, no class
/// inversion) are asserted on the output under `where`.
///
/// Returns the allocation unchanged when the context is single-class.
/// Because every consumer calls this one function with the same context
/// and policy output, the daemon stays watt-for-watt equal to the
/// in-memory loop under multi-tenant mixes too.
[[nodiscard]] rm::PowerAllocation apply_sla_degradation(
    const PolicyContext& context, const rm::PowerAllocation& allocation,
    double budget_watts, std::string_view where);

/// The emergency clamp: scales `caps` onto `budget_watts`, every cap
/// moving toward its job's floor (`floor_watts`, `gpu_floor_watts` on
/// every GPU cap), c' = f + s·(c − f). The reduction is taken from the
/// lowest SLA class first: every best_effort job is squeezed to its
/// floors before a standard job loses a watt, and latency_critical sheds
/// last; the class where the reduction runs out is scaled
/// proportionally. When every job shares one class the single scale is
/// s = (B − Σf) / (Σc − Σf) clamped to [0, 1]. If even the floors exceed
/// the budget, every cap lands on its floor — the stack never programs
/// below a settable minimum. `caps` holds one CPU row per job of
/// `jobs[j].hosts` caps and, per job, an empty or equally long GPU row.
[[nodiscard]] rm::PowerAllocation clamp_to_budget(
    const rm::PowerAllocation& caps, std::span<const JobLimits> jobs,
    double budget_watts);

}  // namespace ps::core
