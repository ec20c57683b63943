#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/policy.hpp"
#include "rm/allocation.hpp"
#include "sim/sla.hpp"

namespace ps::core {

/// What the RM may program for one job: the per-host CPU/node envelope,
/// the per-host GPU envelope when the job has a GPU domain (then every
/// host carries a GPU limit too), and the class the clamp sheds by.
struct JobLimits {
  std::size_t hosts = 0;
  double floor_watts = 0.0;
  double tdp_watts = 0.0;
  bool gpu_domain = false;
  double gpu_floor_watts = 0.0;
  double gpu_tdp_watts = 0.0;
  sim::SlaClass sla_class = sim::SlaClass::kStandard;
};

/// The caps a round's jobs hold now, viewed where their holder keeps them
/// (a daemon's job records, a loop's last allocation), so a round copies
/// none of them. Each job's rows must outlive the view.
class CapsInForce {
 public:
  CapsInForce() = default;
  /// Views every job of `caps`.
  explicit CapsInForce(const rm::PowerAllocation& caps);

  void reserve(std::size_t jobs) { jobs_.reserve(jobs); }
  /// Appends the next job: its CPU caps and its GPU caps (empty for a
  /// single-domain job).
  void add(const std::vector<double>& cpu, const std::vector<double>& gpu) {
    jobs_.push_back({&cpu, &gpu});
  }

  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] const std::vector<double>& cpu(std::size_t job) const {
    return *jobs_[job].cpu;
  }
  [[nodiscard]] const std::vector<double>& gpu(std::size_t job) const {
    return *jobs_[job].gpu;
  }
  /// Σ every CPU cap, then every GPU cap: rm::PowerAllocation's order, so
  /// a view and a copy of the same caps sum to the same bits.
  [[nodiscard]] double total_watts() const;
  /// A copy with one GPU row per job, for the clamp that rewrites them.
  [[nodiscard]] rm::PowerAllocation copy() const;

 private:
  struct Rows {
    const std::vector<double>* cpu;
    const std::vector<double>* gpu;
  };
  std::vector<Rows> jobs_;
};

enum class RoundVerdict { kSeed, kApply, kKeep, kClamp };

struct RoundOutcome {
  RoundVerdict verdict = RoundVerdict::kSeed;
  rm::PowerAllocation caps;  ///< To program; empty on kKeep.
  double total_watts = 0.0;  ///< Σ caps (the caps in force on kKeep).
  std::size_t limits = 0;    ///< Hosts + GPU-phase hosts.
  double shed_watts = 0.0;   ///< Σ per-limit cuts by degradation + clamp.
  bool over_budget = false;  ///< The candidate broke a binding budget.
};

/// The one RM↔runtime step of the execution-time protocol (paper Section
/// VIII), shared by the in-memory loop, the flat and root daemon and the
/// facility manager. Pure: it touches no simulator and no socket; its
/// caller programs, sends or stores the caps.
///
///   context  caps in force   verdict
///   none     none            kSeed: the uniform share, CPU:GPU by TDP
///   given    any             kApply of policy.allocate → SLA degradation
///                            if it fits or the budget does not bind; else
///                            kKeep if the caps in force fit; else kClamp
///   none     given           kKeep if they fit or nothing binds; else
///                            kClamp of the caps in force
///
/// "Fits" is Σ ≤ budget + 0.5 W per limit. The round asserts one
/// invariant set through core::invariants: Σ caps ≤ max(budget, Σ floors)
/// whenever the budget binds or the round seeds, and floor ≤ cap ≤ TDP
/// (0.5 W slack) for every limit of every apply, keep and clamp output. A
/// seed share outside a host's envelope goes out unchanged: hosts clamp it.
struct ControlRound {
  std::span<const JobLimits> jobs;
  double budget_watts = 0.0;
  const Policy* policy = nullptr;          ///< Required with a context.
  const PolicyContext* context = nullptr;  ///< Null on a bootstrap round.
  /// One entry per job (empty for a job holding none yet), or null. With
  /// a context it is read only when the policy's output breaks a binding
  /// budget; it is copied only to be clamped.
  const CapsInForce* caps_in_force = nullptr;
  bool budget_binds = false;

  [[nodiscard]] RoundOutcome run() const;
};

}  // namespace ps::core
