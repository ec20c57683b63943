// Differential oracle for the two class-ordered shedding steps of the
// control round: SLA degradation and the emergency clamp. Each step's
// first implementation is transcribed below as it was written, per-job
// demand vectors and nested floor vectors included, and the shipped code
// must reproduce it bit for bit on seeded random inputs: 1-40 jobs, every
// class mix, floors that differ across jobs, GPU-domain jobs with hosts
// that have no GPU need, and budgets from below the floors to above the
// caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/control_round.hpp"
#include "core/degradation.hpp"
#include "core/invariants.hpp"
#include "core/policy.hpp"
#include "rm/allocation.hpp"
#include "sim/sla.hpp"
#include "util/rng.hpp"

namespace ps::core {
namespace {

using Floors = std::vector<std::vector<double>>;

// ---- Reference degradation: per-job demands, then the flat waterfall.

struct Demand {
  sim::SlaClass sla_class = sim::SlaClass::kStandard;
  std::vector<double> host_floors, host_needed, gpu_floors, gpu_needed;
};

struct RefLimit {
  double* result = nullptr;
  double original = 0.0, floor = 0.0, needed = 0.0;
  std::size_t rank = 0;
};

rm::PowerAllocation reference_degrade(const PolicyContext& context,
                                      const rm::PowerAllocation& allocation,
                                      double budget_watts) {
  if (!has_multiple_sla_classes(context)) {
    return allocation;
  }
  std::vector<Demand> demands;
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const runtime::JobCharacterization& job = context.jobs[j];
    Demand demand;
    demand.sla_class = job.sla_class;
    demand.host_floors.assign(job.host_count, job.min_settable_cap_watts);
    demand.host_needed = job.balancer.host_needed_power_watts;
    demand.host_needed.resize(job.host_count, job.min_settable_cap_watts);
    if (j < allocation.job_host_gpu_caps.size() &&
        !allocation.job_host_gpu_caps[j].empty()) {
      demand.gpu_needed = job.host_gpu_needed_watts;
      demand.gpu_needed.resize(job.host_count, 0.0);
      demand.gpu_floors.assign(job.host_count, 0.0);
      for (std::size_t h = 0; h < job.host_count; ++h) {
        if (demand.gpu_needed[h] > 0.0) {
          demand.gpu_floors[h] = job.gpu_min_cap_watts;
        }
      }
    }
    demands.push_back(std::move(demand));
  }

  rm::PowerAllocation result = allocation;
  std::vector<RefLimit> limits;
  double total_alloc = 0.0;
  double total_floors = 0.0;
  for (std::size_t j = 0; j < allocation.job_host_caps.size(); ++j) {
    const Demand& demand = demands[j];
    const std::size_t rank = sim::sla_rank(demand.sla_class);
    for (std::size_t h = 0; h < allocation.job_host_caps[j].size(); ++h) {
      const double floor = demand.host_floors[h];
      limits.push_back({&result.job_host_caps[j][h],
                        allocation.job_host_caps[j][h], floor,
                        std::max(demand.host_needed[h], floor), rank});
      if (!demand.gpu_floors.empty()) {
        const double gpu_floor = demand.gpu_floors[h];
        limits.push_back({&result.job_host_gpu_caps[j][h],
                          allocation.job_host_gpu_caps[j][h], gpu_floor,
                          std::max(demand.gpu_needed[h], gpu_floor), rank});
      }
    }
  }
  for (const RefLimit& limit : limits) {
    total_alloc += limit.original;
    total_floors += limit.floor;
    *limit.result = limit.floor;
  }
  double remaining = std::min(budget_watts, total_alloc) - total_floors;
  if (remaining <= 0.0) {
    return result;
  }
  for (const bool surplus : {false, true}) {
    for (std::size_t rank = sim::kSlaClassCount; rank-- > 0;) {
      const auto want = [surplus](const RefLimit& limit) {
        return surplus ? std::max(0.0, limit.original - limit.needed)
                       : limit.needed - limit.floor;
      };
      double class_want = 0.0;
      for (const RefLimit& limit : limits) {
        if (limit.rank == rank) {
          class_want += want(limit);
        }
      }
      if (class_want <= 0.0) {
        continue;
      }
      const double grant = std::min(remaining, class_want);
      const double scale = grant / class_want;
      for (RefLimit& limit : limits) {
        if (limit.rank == rank) {
          *limit.result += scale * want(limit);
        }
      }
      remaining -= grant;
      if (remaining <= 0.0) {
        return result;
      }
    }
  }
  return result;
}

// ---- Reference clamp: both overloads over nested floor vectors.

rm::PowerAllocation reference_clamp(const rm::PowerAllocation& allocation,
                                    const Floors& host_floors,
                                    double budget_watts,
                                    const Floors& gpu_floors) {
  double total_caps = 0.0;
  double total_floors = 0.0;
  for (std::size_t j = 0; j < allocation.job_host_caps.size(); ++j) {
    for (std::size_t h = 0; h < allocation.job_host_caps[j].size(); ++h) {
      total_caps += allocation.job_host_caps[j][h];
      total_floors += host_floors[j][h];
    }
  }
  for (std::size_t j = 0; j < allocation.job_host_gpu_caps.size(); ++j) {
    for (std::size_t h = 0; h < allocation.job_host_gpu_caps[j].size(); ++h) {
      total_caps += allocation.job_host_gpu_caps[j][h];
      total_floors += gpu_floors[j][h];
    }
  }
  double scale = 1.0;
  if (total_caps > budget_watts) {
    scale = total_caps > total_floors
                ? (budget_watts - total_floors) / (total_caps - total_floors)
                : 0.0;
    scale = std::clamp(scale, 0.0, 1.0);
  }
  rm::PowerAllocation clamped = allocation;
  for (std::size_t j = 0; j < clamped.job_host_caps.size(); ++j) {
    for (std::size_t h = 0; h < clamped.job_host_caps[j].size(); ++h) {
      double& cap = clamped.job_host_caps[j][h];
      cap = host_floors[j][h] + scale * std::max(0.0, cap - host_floors[j][h]);
    }
  }
  for (std::size_t j = 0; j < clamped.job_host_gpu_caps.size(); ++j) {
    for (std::size_t h = 0; h < clamped.job_host_gpu_caps[j].size(); ++h) {
      double& cap = clamped.job_host_gpu_caps[j][h];
      cap = gpu_floors[j][h] + scale * std::max(0.0, cap - gpu_floors[j][h]);
    }
  }
  return clamped;
}

rm::PowerAllocation reference_clamp(const rm::PowerAllocation& allocation,
                                    const Floors& host_floors,
                                    double budget_watts,
                                    const Floors& gpu_floors,
                                    std::span<const sim::SlaClass> classes) {
  if (std::all_of(classes.begin(), classes.end(),
                  [&](sim::SlaClass c) { return c == classes.front(); })) {
    return reference_clamp(allocation, host_floors, budget_watts, gpu_floors);
  }
  std::array<double, sim::kSlaClassCount> class_caps{};
  std::array<double, sim::kSlaClassCount> class_floors{};
  double total_caps = 0.0;
  for (std::size_t j = 0; j < allocation.job_host_caps.size(); ++j) {
    const std::size_t rank = sim::sla_rank(classes[j]);
    for (std::size_t h = 0; h < allocation.job_host_caps[j].size(); ++h) {
      class_caps[rank] += allocation.job_host_caps[j][h];
      class_floors[rank] += host_floors[j][h];
      total_caps += allocation.job_host_caps[j][h];
    }
    if (j < allocation.job_host_gpu_caps.size()) {
      for (std::size_t h = 0; h < allocation.job_host_gpu_caps[j].size();
           ++h) {
        class_caps[rank] += allocation.job_host_gpu_caps[j][h];
        class_floors[rank] += gpu_floors[j][h];
        total_caps += allocation.job_host_gpu_caps[j][h];
      }
    }
  }
  std::array<double, sim::kSlaClassCount> class_scale;
  class_scale.fill(1.0);
  double reduction = std::max(0.0, total_caps - budget_watts);
  for (std::size_t rank = 0; rank < sim::kSlaClassCount && reduction > 0.0;
       ++rank) {
    const double excess = class_caps[rank] - class_floors[rank];
    if (excess <= 0.0) {
      continue;
    }
    const double take = std::min(reduction, excess);
    class_scale[rank] = 1.0 - take / excess;
    reduction -= take;
  }
  rm::PowerAllocation clamped = allocation;
  for (std::size_t j = 0; j < clamped.job_host_caps.size(); ++j) {
    const double scale = class_scale[sim::sla_rank(classes[j])];
    for (std::size_t h = 0; h < clamped.job_host_caps[j].size(); ++h) {
      double& cap = clamped.job_host_caps[j][h];
      cap = host_floors[j][h] + scale * std::max(0.0, cap - host_floors[j][h]);
    }
    if (j < clamped.job_host_gpu_caps.size()) {
      for (std::size_t h = 0; h < clamped.job_host_gpu_caps[j].size(); ++h) {
        double& cap = clamped.job_host_gpu_caps[j][h];
        cap = gpu_floors[j][h] + scale * std::max(0.0, cap - gpu_floors[j][h]);
      }
    }
  }
  return clamped;
}

/// The round's emergency clamp as first written: nested floors and the
/// class list built from the job limits, one row per candidate row.
rm::PowerAllocation reference_round_clamp(const rm::PowerAllocation& caps,
                                          std::span<const JobLimits> jobs,
                                          double budget_watts) {
  std::vector<sim::SlaClass> classes;
  Floors floors;
  Floors gpu_floors;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    classes.push_back(jobs[j].sla_class);
    floors.emplace_back(caps.job_host_caps[j].size(), jobs[j].floor_watts);
    if (j < caps.job_host_gpu_caps.size()) {
      gpu_floors.emplace_back(caps.job_host_gpu_caps[j].size(),
                              jobs[j].gpu_floor_watts);
    }
  }
  return reference_clamp(caps, floors, budget_watts, gpu_floors, classes);
}

// ---- Seeded random inputs.

struct Case {
  PolicyContext context;
  std::vector<JobLimits> limits;
  rm::PowerAllocation caps;
  double floor_watts = 0.0;  ///< Σ per-limit floors the clamp keeps.
  double cap_watts = 0.0;    ///< Σ caps.
};

/// Class mixes: 0 all three classes, 1 one class, 2 two classes.
sim::SlaClass draw_class(util::Rng& rng, std::size_t mix,
                         sim::SlaClass only, sim::SlaClass other) {
  if (mix == 1) {
    return only;
  }
  if (mix == 2) {
    return rng.uniform() < 0.5 ? only : other;
  }
  return static_cast<sim::SlaClass>(rng.uniform_index(sim::kSlaClassCount));
}

Case random_case(util::Rng& rng) {
  Case c;
  const std::size_t jobs = 1 + rng.uniform_index(40);
  const std::size_t mix = rng.uniform_index(3);
  const auto only = static_cast<sim::SlaClass>(rng.uniform_index(3));
  const auto other = static_cast<sim::SlaClass>((sim::sla_rank(only) + 1 +
                                                 rng.uniform_index(2)) %
                                                sim::kSlaClassCount);
  // Some mixes carry no GPU row at all (a CPU-only allocation).
  const bool gpu_rows = rng.uniform() < 0.8;
  for (std::size_t j = 0; j < jobs; ++j) {
    runtime::JobCharacterization job;
    job.host_count = 1 + rng.uniform_index(4);
    job.sla_class = draw_class(rng, mix, only, other);
    job.min_settable_cap_watts = rng.uniform(100.0, 160.0);
    const double tdp = rng.uniform(220.0, 300.0);
    const bool gpu = gpu_rows && rng.uniform() < 0.4;
    // Needs may be shorter than the host count: the missing hosts need
    // only their floor (CPU) or nothing (GPU).
    const std::size_t needs =
        rng.uniform() < 0.1 ? rng.uniform_index(job.host_count)
                            : job.host_count;
    for (std::size_t h = 0; h < needs; ++h) {
      job.balancer.host_needed_power_watts.push_back(rng.uniform(90.0, tdp));
    }
    JobLimits limits{.hosts = job.host_count,
                     .floor_watts = job.min_settable_cap_watts,
                     .tdp_watts = tdp,
                     .sla_class = job.sla_class};
    std::vector<double> cpu;
    std::vector<double> gpu_caps;
    for (std::size_t h = 0; h < job.host_count; ++h) {
      // Mostly inside the envelope, sometimes below the floor.
      cpu.push_back(rng.uniform(0.9 * job.min_settable_cap_watts, tdp));
      c.floor_watts += job.min_settable_cap_watts;
    }
    if (gpu) {
      job.gpu_min_cap_watts = rng.uniform(60.0, 120.0);
      job.gpu_tdp_watts = rng.uniform(250.0, 400.0);
      limits.gpu_domain = true;
      limits.gpu_floor_watts = job.gpu_min_cap_watts;
      limits.gpu_tdp_watts = job.gpu_tdp_watts;
      for (std::size_t h = 0; h < needs; ++h) {
        // Some hosts run no GPU phase: zero need, no GPU floor.
        job.host_gpu_needed_watts.push_back(
            rng.uniform() < 0.3 ? 0.0
                                : rng.uniform(50.0, job.gpu_tdp_watts));
      }
      if (job.host_gpu_needed_watts.empty()) {
        job.host_gpu_needed_watts.push_back(0.0);
      }
      for (std::size_t h = 0; h < job.host_count; ++h) {
        gpu_caps.push_back(rng.uniform(0.9 * job.gpu_min_cap_watts,
                                       job.gpu_tdp_watts));
        c.floor_watts += job.gpu_min_cap_watts;
      }
    }
    for (const double cap : cpu) {
      c.cap_watts += cap;
    }
    for (const double cap : gpu_caps) {
      c.cap_watts += cap;
    }
    c.caps.job_host_caps.push_back(std::move(cpu));
    if (gpu_rows) {
      c.caps.job_host_gpu_caps.push_back(std::move(gpu_caps));
    }
    c.context.jobs.push_back(std::move(job));
    c.limits.push_back(limits);
  }
  return c;
}

/// Budgets from well below Σ floors to well above Σ caps.
std::vector<double> budgets_for(const Case& c, util::Rng& rng) {
  std::vector<double> budgets = {0.5 * c.floor_watts, c.floor_watts,
                                 c.cap_watts, 1.5 * c.cap_watts};
  for (int i = 0; i < 4; ++i) {
    budgets.push_back(rng.uniform(0.8 * c.floor_watts, 1.1 * c.cap_watts));
  }
  return budgets;
}

bool same_bits(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].size() != b[j].size()) {
      return false;
    }
    for (std::size_t h = 0; h < a[j].size(); ++h) {
      if (std::bit_cast<std::uint64_t>(a[j][h]) !=
          std::bit_cast<std::uint64_t>(b[j][h])) {
        return false;
      }
    }
  }
  return true;
}

bool same_bits(const rm::PowerAllocation& a, const rm::PowerAllocation& b) {
  return same_bits(a.job_host_caps, b.job_host_caps) &&
         same_bits(a.job_host_gpu_caps, b.job_host_gpu_caps);
}

constexpr int kCases = 400;

TEST(SheddingOracleTest, DegradationMatchesTheTranscriptionBitForBit) {
  invariants::reset();
  util::Rng rng(2021);
  int mixed_gpu_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    Case c = random_case(rng);
    mixed_gpu_cases +=
        has_multiple_sla_classes(c.context) && c.caps.has_gpu_caps();
    for (const double budget : budgets_for(c, rng)) {
      c.context.system_budget_watts = budget;
      const rm::PowerAllocation expected =
          reference_degrade(c.context, c.caps, budget);
      const rm::PowerAllocation actual =
          apply_sla_degradation(c.context, c.caps, budget, "oracle");
      ASSERT_TRUE(same_bits(expected, actual))
          << "case " << i << ", budget " << budget;
    }
  }
  EXPECT_GT(mixed_gpu_cases, kCases / 4);
  EXPECT_EQ(invariants::stats().violations, 0u);
  invariants::reset();
}

TEST(SheddingOracleTest, ClampMatchesTheTranscriptionBitForBit) {
  util::Rng rng(1994);
  int mixed_gpu_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    const Case c = random_case(rng);
    mixed_gpu_cases +=
        has_multiple_sla_classes(c.context) && c.caps.has_gpu_caps();
    for (const double budget : budgets_for(c, rng)) {
      const rm::PowerAllocation expected =
          reference_round_clamp(c.caps, c.limits, budget);
      const rm::PowerAllocation actual =
          clamp_to_budget(c.caps, c.limits, budget);
      ASSERT_TRUE(same_bits(expected, actual))
          << "case " << i << ", budget " << budget;
    }
  }
  EXPECT_GT(mixed_gpu_cases, kCases / 4);
}

}  // namespace
}  // namespace ps::core
