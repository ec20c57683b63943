#include "rm/power_manager.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ps::rm {

SystemPowerManager::SystemPowerManager(double system_budget_watts)
    : budget_(system_budget_watts) {
  PS_REQUIRE(system_budget_watts > 0.0, "system budget must be positive");
}

void SystemPowerManager::set_observer(const obs::Observability& obs) {
  if (obs.metrics == nullptr) {
    return;
  }
  applies_metric_ = &obs.metrics->counter("rm.applies");
  budget_adopted_metric_ = &obs.metrics->counter("rm.budget_adopted");
  budget_stale_metric_ = &obs.metrics->counter("rm.budget_stale");
  excursions_metric_ = &obs.metrics->counter("rm.excursions_closed");
  budget_gauge_ = &obs.metrics->gauge("rm.budget_watts");
  time_to_safe_gauge_ = &obs.metrics->gauge("rm.last_time_to_safe_seconds");
  budget_gauge_->set(budget_);
}

bool SystemPowerManager::set_budget(double budget_watts, std::uint64_t epoch) {
  PS_REQUIRE(budget_watts > 0.0, "system budget must be positive");
  if (epoch <= budget_epoch_) {
    if (budget_stale_metric_ != nullptr) {
      budget_stale_metric_->add();
    }
    return false;  // stale revision: a newer budget already applied
  }
  budget_ = budget_watts;
  budget_epoch_ = epoch;
  if (budget_adopted_metric_ != nullptr) {
    budget_adopted_metric_->add();
    budget_gauge_->set(budget_);
  }
  return true;
}

void SystemPowerManager::program_job(sim::JobSimulation& job,
                                     std::span<const double> caps,
                                     std::span<const double> gpu_caps) {
  PS_REQUIRE(caps.size() == job.host_count(),
             "allocation has a different number of hosts for a job");
  PS_REQUIRE(gpu_caps.empty() || gpu_caps.size() == job.host_count(),
             "GPU allocation has a different number of hosts for a job");
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    job.set_host_cap(h, caps[h]);
    if (!gpu_caps.empty() && job.host(h).gpu_count() > 0) {
      job.set_host_gpu_cap(h, gpu_caps[h]);
    }
  }
}

void SystemPowerManager::apply(std::span<sim::JobSimulation* const> jobs,
                               const PowerAllocation& allocation,
                               bool enforce_budget) const {
  PS_REQUIRE(allocation.job_host_caps.size() == jobs.size(),
             "allocation has a different number of jobs");
  PS_REQUIRE(allocation.job_host_gpu_caps.empty() ||
                 allocation.job_host_gpu_caps.size() == jobs.size(),
             "GPU allocation has a different number of jobs");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    PS_REQUIRE(jobs[j] != nullptr, "job must not be null");
    PS_REQUIRE(allocation.job_host_caps[j].size() == jobs[j]->host_count(),
               "allocation has a different number of hosts for a job");
    const auto& gpu_caps = allocation.job_gpu_caps(j);
    PS_REQUIRE(gpu_caps.empty() || gpu_caps.size() == jobs[j]->host_count(),
               "GPU allocation has a different number of hosts for a job");
  }
  if (enforce_budget) {
    // Tolerance covers RAPL power-unit quantization (1/8 W per socket).
    const double tolerance =
        0.5 * static_cast<double>(allocation.host_count());
    PS_REQUIRE(allocation.within_budget(budget_, tolerance),
               "allocation exceeds the system power budget");
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    program_job(*jobs[j], allocation.job_host_caps[j],
                allocation.job_gpu_caps(j));
  }
  if (applies_metric_ != nullptr) {
    applies_metric_->add();
  }
}

void SystemPowerManager::observe_programmed(double programmed_watts,
                                            std::size_t host_count,
                                            double elapsed_seconds) {
  PS_REQUIRE(elapsed_seconds >= 0.0, "elapsed time cannot be negative");
  const double tolerance = 0.5 * static_cast<double>(host_count);
  const double over = programmed_watts - budget_;
  if (over > tolerance) {
    excursions_.in_excursion = true;
    excursions_.current_excursion_seconds += elapsed_seconds;
    excursions_.over_budget_watt_seconds += over * elapsed_seconds;
    excursions_.worst_over_watts = std::max(excursions_.worst_over_watts, over);
  } else if (excursions_.in_excursion) {
    ++excursions_.excursions;
    excursions_.last_time_to_safe_seconds =
        excursions_.current_excursion_seconds;
    excursions_.max_time_to_safe_seconds =
        std::max(excursions_.max_time_to_safe_seconds,
                 excursions_.current_excursion_seconds);
    excursions_.current_excursion_seconds = 0.0;
    excursions_.in_excursion = false;
    if (excursions_metric_ != nullptr) {
      excursions_metric_->add();
      time_to_safe_gauge_->set(excursions_.last_time_to_safe_seconds);
    }
  }
}

double SystemPowerManager::total_allocated_watts(
    std::span<sim::JobSimulation* const> jobs) {
  double total = 0.0;
  for (const auto* job : jobs) {
    PS_REQUIRE(job != nullptr, "job must not be null");
    total += job->total_allocated_power();
  }
  return total;
}

bool SystemPowerManager::allocation_fits(
    std::span<sim::JobSimulation* const> jobs) const {
  double hosts = 0.0;
  for (const auto* job : jobs) {
    hosts += static_cast<double>(job->host_count());
  }
  return total_allocated_watts(jobs) <= budget_ + 0.5 * hosts;
}

}  // namespace ps::rm
