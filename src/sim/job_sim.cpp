#include "sim/job_sim.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ps::sim {

double JobTotals::average_power_watts(std::size_t hosts) const {
  if (elapsed_seconds <= 0.0 || hosts == 0) {
    return 0.0;
  }
  return energy_joules / elapsed_seconds / static_cast<double>(hosts);
}

double JobTotals::gflops_per_watt(std::size_t hosts) const {
  if (energy_joules <= 0.0 || hosts == 0) {
    return 0.0;
  }
  // GFLOP / joule == GFLOP/s per watt.
  return gflop / energy_joules;
}

double JobTotals::energy_delay_product() const {
  return energy_joules * elapsed_seconds;
}

JobSimulation::JobSimulation(std::string name,
                             std::vector<hw::NodeModel*> hosts,
                             const kernel::WorkloadConfig& config,
                             const NoiseParams& noise, util::Rng noise_rng)
    : name_(std::move(name)),
      hosts_(std::move(hosts)),
      config_(config),
      noise_(noise),
      noise_rng_(noise_rng) {
  config_.validate();
  PS_REQUIRE(!hosts_.empty(), "job needs at least one host");
  for (const auto* host : hosts_) {
    PS_REQUIRE(host != nullptr, "job host must not be null");
  }
  PS_REQUIRE(noise.time_sigma >= 0.0, "noise sigma cannot be negative");
  failed_.assign(hosts_.size(), false);
  slowdown_.assign(hosts_.size(), 1.0);
  waiting_hosts_ = derive_waiting_hosts();
}

void JobSimulation::set_workload(const kernel::WorkloadConfig& config) {
  config.validate();
  config_ = config;
  waiting_hosts_ = derive_waiting_hosts();
}

std::size_t JobSimulation::derive_waiting_hosts() const {
  return std::min(
      static_cast<std::size_t>(std::lround(
          config_.waiting_fraction * static_cast<double>(hosts_.size()))),
      hosts_.size() - 1);
}

hw::NodeModel& JobSimulation::host(std::size_t index) {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  return *hosts_[index];
}

const hw::NodeModel& JobSimulation::host(std::size_t index) const {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  return *hosts_[index];
}

bool JobSimulation::is_waiting_host(std::size_t index) const {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  return index < waiting_hosts_;
}

double JobSimulation::host_gigabytes(std::size_t index) const {
  return is_waiting_host(index)
             ? config_.gigabytes_per_iteration
             : config_.gigabytes_per_iteration * config_.imbalance;
}

void JobSimulation::set_host_cap(std::size_t index, double watts) {
  host(index).set_power_cap(watts);
}

double JobSimulation::host_cap(std::size_t index) const {
  return host(index).power_cap();
}

double JobSimulation::total_allocated_power() const {
  double total = 0.0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    total += hosts_[i]->power_cap();
    if (host_has_gpu_phase(i)) {
      total += hosts_[i]->gpu_power_cap();
    }
  }
  return total;
}

bool JobSimulation::host_has_gpu_phase(std::size_t index) const {
  return config_.gpu_gigabytes_per_iteration > 0.0 &&
         host(index).gpu_count() > 0;
}

bool JobSimulation::has_gpu_domain() const {
  if (config_.gpu_gigabytes_per_iteration <= 0.0) {
    return false;  // no offloaded phase — device inventory is irrelevant
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (host_has_gpu_phase(i)) {
      return true;
    }
  }
  return false;
}

void JobSimulation::set_host_gpu_cap(std::size_t index, double watts) {
  PS_REQUIRE(host(index).gpu_count() > 0, "host has no GPU devices");
  host(index).set_gpu_power_cap(watts);
}

double JobSimulation::host_gpu_cap(std::size_t index) const {
  return host(index).gpu_power_cap();
}

double JobSimulation::host_gpu_min_cap(std::size_t index) const {
  return host(index).gpu_min_cap();
}

double JobSimulation::host_gpu_tdp(std::size_t index) const {
  return host(index).gpu_tdp();
}

double JobSimulation::preview_gpu_seconds(std::size_t index,
                                          double gpu_cap_watts) const {
  const hw::NodeModel& node = host(index);
  PS_REQUIRE(node.gpu_count() > 0, "host has no GPU devices");
  const double devices = static_cast<double>(node.gpu_count());
  const double share = config_.gpu_gigabytes_per_iteration / devices;
  const double per_device_cap = gpu_cap_watts / devices;
  double seconds = 0.0;
  for (std::size_t g = 0; g < node.gpu_count(); ++g) {
    const hw::GpuPhaseResult phase = node.gpu(g).preview_compute(
        share, config_.gpu_intensity, config_.gpu_occupancy, per_device_cap);
    seconds = std::max(seconds, phase.seconds);
  }
  return seconds;
}

void JobSimulation::set_host_failed(std::size_t index, bool failed) {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  if (failed && !failed_[index]) {
    PS_REQUIRE(active_host_count() > 1,
               "cannot fail a job's last live host");
  }
  failed_[index] = failed;
}

bool JobSimulation::host_failed(std::size_t index) const {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  return failed_[index];
}

std::size_t JobSimulation::active_host_count() const noexcept {
  std::size_t active = 0;
  for (const bool dead : failed_) {
    active += dead ? 0 : 1;
  }
  return active;
}

void JobSimulation::set_host_slowdown(std::size_t index, double factor) {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  PS_REQUIRE(factor >= 1.0, "slowdown factor must be at least 1");
  slowdown_[index] = factor;
}

double JobSimulation::host_slowdown(std::size_t index) const {
  PS_REQUIRE(index < hosts_.size(), "host index out of range");
  return slowdown_[index];
}

IterationResult JobSimulation::run_iteration() {
  const std::size_t count = hosts_.size();
  const bool gpu_domain = has_gpu_domain();
  IterationResult result;
  result.hosts.resize(count);
  soa_seconds_.assign(count, 0.0);
  soa_power_.assign(count, 0.0);
  soa_gflop_.assign(count, 0.0);
  soa_frequency_.assign(count, 0.0);
  soa_busy_.assign(count, 0.0);

  // Pass 1 — solve: one memoized lookup per host fills the columns; the
  // fixed-point solver only re-runs for hosts whose limits changed since
  // the previous iteration, and a host whose solve matches the previous
  // live host's (an identical node under the same limits and phase)
  // copies that host's solution instead of solving again.
  const hw::NodeModel* twin = nullptr;
  for (std::size_t i = 0; i < count; ++i) {
    auto& host_result = result.hosts[i];
    host_result.node = hosts_[i]->id();
    host_result.waiting_host = is_waiting_host(i);
    if (failed_[i]) {
      continue;  // a dead host: no work, no energy
    }
    const hw::PhaseResult& phase = hosts_[i]->compute_solution(
        host_gigabytes(i), config_.intensity, config_.vector_width, twin);
    twin = hosts_[i];
    hosts_[i]->accrue_phase(phase);
    soa_seconds_[i] = phase.seconds;
    soa_power_[i] = phase.power_watts;
    soa_gflop_[i] = phase.gflops * phase.seconds;
    soa_frequency_[i] = phase.frequency_ghz;
  }

  // Pass 2 — busy times: slowdown then jitter over the seconds column,
  // and the compute-phase energy at that busy time. One RNG draw per
  // live host, ascending — the draw order is part of the determinism
  // contract.
  for (std::size_t i = 0; i < count; ++i) {
    if (failed_[i]) {
      continue;
    }
    double busy = soa_seconds_[i] * slowdown_[i];
    if (noise_.time_sigma > 0.0) {
      const double jitter =
          std::max(1.0 + noise_rng_.normal(0.0, noise_.time_sigma), 0.5);
      busy *= jitter;
    }
    soa_busy_[i] = busy;
    result.hosts[i].energy_joules = soa_power_[i] * busy;
  }

  // Pass 3 — GPU phase (two-domain jobs only): the offload runs
  // concurrently with the CPU phase. GPU work is uniform across hosts (no
  // imbalance) and split across devices. A host whose kernels outlast its
  // CPU phase busy-polls until they complete, which extends its busy
  // column before the critical path is taken. Each poll here and in pass
  // 5 offers the previous live host that polled as its solve twin.
  const hw::NodeModel* poll_twin = nullptr;
  for (std::size_t i = 0; gpu_domain && i < count; ++i) {
    if (failed_[i] || !host_has_gpu_phase(i)) {
      continue;
    }
    auto& host_result = result.hosts[i];
    hw::NodeModel& node = *hosts_[i];
    const double share = config_.gpu_gigabytes_per_iteration /
                         static_cast<double>(node.gpu_count());
    double gpu_busy = 0.0;
    double gpu_clock = 0.0;
    for (std::size_t g = 0; g < node.gpu_count(); ++g) {
      const hw::GpuPhaseResult gpu_phase = node.gpu(g).run_compute(
          share, config_.gpu_intensity, config_.gpu_occupancy);
      gpu_busy = std::max(gpu_busy, gpu_phase.seconds);
      gpu_clock = gpu_clock == 0.0
                      ? gpu_phase.clock_ghz
                      : std::min(gpu_clock, gpu_phase.clock_ghz);
      host_result.gpu_energy_joules += gpu_phase.energy_joules;
      host_result.gpu_gflop += gpu_phase.gflops * gpu_phase.seconds;
    }
    host_result.gpu_busy_seconds = gpu_busy;
    host_result.gpu_clock_ghz = gpu_clock;
    if (gpu_busy > soa_busy_[i]) {
      const hw::PhaseResult wait =
          node.run_poll(gpu_busy - soa_busy_[i], poll_twin);
      poll_twin = &node;
      host_result.energy_joules += wait.energy_joules;
      soa_busy_[i] = gpu_busy;
    }
    host_result.energy_joules += host_result.gpu_energy_joules;
    soa_gflop_[i] += host_result.gpu_gflop;
  }

  // Pass 4 — critical path: strict-max reduction in host order (a dead
  // host's zero can never win; at least one host is alive).
  for (std::size_t i = 0; i < count; ++i) {
    if (soa_busy_[i] > result.iteration_seconds) {
      result.iteration_seconds = soa_busy_[i];
      result.critical_host_index = i;
    }
  }

  // Pass 5 — barrier poll, the GPU idle tail, and totals over the
  // columns.
  for (std::size_t i = 0; i < count; ++i) {
    if (failed_[i]) {
      continue;
    }
    auto& host_result = result.hosts[i];
    const double busy = soa_busy_[i];
    host_result.busy_seconds = busy;
    host_result.gflop = soa_gflop_[i];
    host_result.frequency_ghz = soa_frequency_[i];
    host_result.poll_seconds = result.iteration_seconds - busy;
    if (host_result.poll_seconds > 0.0) {
      const hw::PhaseResult poll =
          hosts_[i]->run_poll(host_result.poll_seconds, poll_twin);
      poll_twin = hosts_[i];
      host_result.energy_joules += poll.energy_joules;
    }
    if (gpu_domain && host_has_gpu_phase(i)) {
      // Devices sit at their leakage floor from kernel completion until
      // the barrier releases (the CPU tail plus any barrier poll).
      const double gpu_idle =
          result.iteration_seconds - host_result.gpu_busy_seconds;
      if (gpu_idle > 0.0) {
        hw::NodeModel& node = *hosts_[i];
        double idle_joules = 0.0;
        for (std::size_t g = 0; g < node.gpu_count(); ++g) {
          node.gpu(g).run_idle(gpu_idle);
          idle_joules += node.gpu(g).idle_watts() * gpu_idle;
        }
        host_result.gpu_energy_joules += idle_joules;
        host_result.energy_joules += idle_joules;
      }
      host_result.gpu_average_power_watts =
          result.iteration_seconds > 0.0
              ? host_result.gpu_energy_joules / result.iteration_seconds
              : 0.0;
    }
    host_result.average_power_watts =
        result.iteration_seconds > 0.0
            ? host_result.energy_joules / result.iteration_seconds
            : 0.0;
    result.total_energy_joules += host_result.energy_joules;
    result.total_gflop += host_result.gflop;
  }
  if (result.iteration_seconds > 0.0) {
    result.average_node_power_watts =
        result.total_energy_joules / result.iteration_seconds /
        static_cast<double>(hosts_.size());
  }

  totals_.iterations += 1;
  totals_.elapsed_seconds += result.iteration_seconds;
  totals_.energy_joules += result.total_energy_joules;
  totals_.gflop += result.total_gflop;
  return result;
}

}  // namespace ps::sim
