#include "core/degradation.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/invariants.hpp"
#include "sim/sla.hpp"
#include "util/error.hpp"

namespace ps::core {

namespace {

using ClassSums = std::array<double, sim::kSlaClassCount>;

/// One programmable limit — a host's CPU cap or a host's GPU cap — with
/// its degradation inputs, in allocation order (job, host, CPU lane then
/// GPU lane) so both domains shed through the same waterfall.
struct Limit {
  double* slot = nullptr;  ///< Points into the output allocation.
  double original = 0.0;
  double floor = 0.0;
  double needed = 0.0;  ///< Never below the floor.
  std::uint8_t rank = 0;  ///< sla_rank of the owning job.
  bool gpu = false;
};

/// The job's GPU row when the allocation gives it GPU caps, else null.
std::vector<double>* gpu_row(rm::PowerAllocation& allocation, std::size_t j) {
  return j < allocation.job_host_gpu_caps.size() &&
                 !allocation.job_host_gpu_caps[j].empty()
             ? &allocation.job_host_gpu_caps[j]
             : nullptr;
}

/// Grants `remaining` watts class by class, highest first: a class gets
/// all it wants while watts last, the class where they run out a
/// proportional share, and `scale[rank]` records the fraction granted.
void grant_by_class(const ClassSums& want, double& remaining,
                    ClassSums& scale) {
  for (std::size_t rank = sim::kSlaClassCount;
       rank-- > 0 && remaining > 0.0;) {
    if (want[rank] <= 0.0) {
      continue;
    }
    const double granted = std::min(remaining, want[rank]);
    scale[rank] = granted / want[rank];
    remaining -= granted;
  }
}

}  // namespace

bool has_multiple_sla_classes(const PolicyContext& context) {
  for (const runtime::JobCharacterization& job : context.jobs) {
    if (job.sla_class != context.jobs.front().sla_class) {
      return true;
    }
  }
  return false;
}

rm::PowerAllocation apply_sla_degradation(
    const PolicyContext& context, const rm::PowerAllocation& allocation,
    double budget_watts, std::string_view where) {
  PS_REQUIRE(allocation.job_host_caps.size() == context.jobs.size(),
             "allocation has a different number of jobs than the context");
  if (!has_multiple_sla_classes(context)) {
    return allocation;
  }
  PS_REQUIRE(budget_watts > 0.0, "degradation budget must be positive");

  rm::PowerAllocation degraded = allocation;
  std::vector<Limit> limits;
  limits.reserve(allocation.host_count());
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const runtime::JobCharacterization& job = context.jobs[j];
    std::vector<double>& cpu = degraded.job_host_caps[j];
    std::vector<double>* gpu = gpu_row(degraded, j);
    PS_REQUIRE(cpu.size() == job.host_count &&
                   (gpu == nullptr || gpu->size() == job.host_count),
               "allocation has a different number of hosts for a job");
    const auto rank = static_cast<std::uint8_t>(sim::sla_rank(job.sla_class));
    const std::vector<double>& needed = job.balancer.host_needed_power_watts;
    const std::vector<double>& gpu_needed = job.host_gpu_needed_watts;
    for (std::size_t h = 0; h < job.host_count; ++h) {
      // A host without a balancer figure needs only its floor.
      const double floor = job.min_settable_cap_watts;
      const double need = h < needed.size() ? needed[h] : floor;
      limits.push_back(
          {&cpu[h], cpu[h], floor, std::max(need, floor), rank, false});
      if (gpu != nullptr) {
        // Only hosts that actually run a GPU phase carry the GPU floor.
        const double gpu_need = h < gpu_needed.size() ? gpu_needed[h] : 0.0;
        const double gpu_floor = gpu_need > 0.0 ? job.gpu_min_cap_watts : 0.0;
        limits.push_back({&(*gpu)[h], (*gpu)[h], gpu_floor,
                          std::max(gpu_need, gpu_floor), rank, true});
      }
    }
  }

  double total_alloc = 0.0;
  double total_floors = 0.0;
  ClassSums need{};
  ClassSums surplus{};
  for (const Limit& limit : limits) {
    total_alloc += limit.original;
    total_floors += limit.floor;
    need[limit.rank] += limit.needed - limit.floor;
    surplus[limit.rank] += std::max(0.0, limit.original - limit.needed);
  }
  // The pass only ever shrinks the total: it re-divides
  // min(budget, Σ caps) above the floors, first by need (phase 1), then,
  // in abundance, by the policy's discretionary surplus (phase 2). A
  // class phase 1 cannot fully fund leaves every class below it at its
  // floors — the no-inversion guarantee.
  double remaining = std::min(budget_watts, total_alloc) - total_floors;
  ClassSums need_scale{};
  ClassSums surplus_scale{};
  grant_by_class(need, remaining, need_scale);
  grant_by_class(surplus, remaining, surplus_scale);
  for (const Limit& limit : limits) {
    *limit.slot = limit.floor;
    *limit.slot += need_scale[limit.rank] * (limit.needed - limit.floor);
    *limit.slot += surplus_scale[limit.rank] *
                   std::max(0.0, limit.original - limit.needed);
  }

  // Class invariants over the degraded output: conservation (the pass
  // re-divides watts, never mints them) and no inversion (a starved
  // higher class never coexists with a lower class above its floors).
  // Each job's CPU lanes are summed before its GPU lanes.
  std::vector<invariants::ClassAllocationView> views(context.jobs.size());
  double total = 0.0;
  const Limit* next = limits.data();
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    invariants::ClassAllocationView& view = views[j];
    const std::size_t lanes =
        context.jobs[j].host_count * (gpu_row(degraded, j) != nullptr ? 2 : 1);
    std::size_t quantized = 0;
    for (const bool gpu : {false, true}) {
      for (const Limit* limit = next; limit != next + lanes; ++limit) {
        if (limit->gpu == gpu) {
          view.allocated_watts += *limit->slot;
          view.floor_watts += limit->floor;
          view.guaranteed_watts += limit->needed;
          if (!gpu || limit->floor > 0.0) {
            ++quantized;  // GPU lanes without a floor add no slack
          }
        }
      }
    }
    next += lanes;
    view.rank = sim::sla_rank(context.jobs[j].sla_class);
    view.tolerance_watts = 0.5 * static_cast<double>(quantized);
    total += view.allocated_watts;
  }
  invariants::check_class_budget_conserved(views, total, budget_watts, where);
  invariants::check_no_class_inversion(views, where);
  return degraded;
}

rm::PowerAllocation clamp_to_budget(const rm::PowerAllocation& caps,
                                    std::span<const JobLimits> jobs,
                                    double budget_watts) {
  PS_REQUIRE(budget_watts > 0.0, "clamp budget must be positive");
  PS_REQUIRE(caps.job_host_caps.size() == jobs.size() &&
                 caps.job_host_gpu_caps.size() <= jobs.size(),
             "caps have a different number of jobs than the limits");
  bool mixed = false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobLimits& job = jobs[j];
    const std::vector<double>& gpu = caps.job_gpu_caps(j);
    PS_REQUIRE(caps.job_host_caps[j].size() == job.hosts &&
                   (gpu.empty() || gpu.size() == job.hosts),
               "caps have a different number of hosts for a job");
    PS_REQUIRE(job.floor_watts >= 0.0 &&
                   (gpu.empty() || job.gpu_floor_watts >= 0.0),
               "clamp floor cannot be negative");
    mixed = mixed || job.sla_class != jobs.front().sla_class;
  }

  // One scale per class. One class is one proportional family, summed
  // over every CPU cap, then every GPU cap; mixed classes sum job by job
  // and take the reduction from the lowest class first: a class is
  // pinned to its floors while the reduction still exceeds its excess,
  // the class where it runs out is scaled proportionally, and every class
  // above keeps its caps.
  ClassSums scale;
  scale.fill(1.0);
  if (!mixed) {
    double total_caps = 0.0;
    double total_floors = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (const double cap : caps.job_host_caps[j]) {
        total_caps += cap;
        total_floors += jobs[j].floor_watts;
      }
    }
    for (std::size_t j = 0; j < caps.job_host_gpu_caps.size(); ++j) {
      for (const double cap : caps.job_host_gpu_caps[j]) {
        total_caps += cap;
        total_floors += jobs[j].gpu_floor_watts;
      }
    }
    if (total_caps > budget_watts) {
      const double s =
          total_caps > total_floors
              ? (budget_watts - total_floors) / (total_caps - total_floors)
              : 0.0;
      scale.fill(std::clamp(s, 0.0, 1.0));
    }
  } else {
    ClassSums class_caps{};
    ClassSums class_floors{};
    double total_caps = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t rank = sim::sla_rank(jobs[j].sla_class);
      for (const double cap : caps.job_host_caps[j]) {
        class_caps[rank] += cap;
        class_floors[rank] += jobs[j].floor_watts;
        total_caps += cap;
      }
      for (const double cap : caps.job_gpu_caps(j)) {
        class_caps[rank] += cap;
        class_floors[rank] += jobs[j].gpu_floor_watts;
        total_caps += cap;
      }
    }
    double reduction = std::max(0.0, total_caps - budget_watts);
    for (std::size_t rank = 0; rank < sim::kSlaClassCount && reduction > 0.0;
         ++rank) {
      const double excess = class_caps[rank] - class_floors[rank];
      if (excess <= 0.0) {
        continue;
      }
      const double take = std::min(reduction, excess);
      scale[rank] = 1.0 - take / excess;
      reduction -= take;
    }
  }

  rm::PowerAllocation clamped = caps;
  const auto squeeze = [](std::vector<double>& row, double floor, double s) {
    for (double& cap : row) {
      cap = floor + s * std::max(0.0, cap - floor);
    }
  };
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const double s = scale[sim::sla_rank(jobs[j].sla_class)];
    squeeze(clamped.job_host_caps[j], jobs[j].floor_watts, s);
    if (j < clamped.job_host_gpu_caps.size()) {
      squeeze(clamped.job_host_gpu_caps[j], jobs[j].gpu_floor_watts, s);
    }
  }
  return clamped;
}

}  // namespace ps::core
