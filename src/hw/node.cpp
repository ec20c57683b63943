#include "hw/node.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ps::hw {

NodeModel::NodeModel(NodeId id, double eta, const NodeParams& params)
    : NodeModel(id, eta, eta, params) {}

NodeModel::NodeModel(NodeId id, double eta_socket0, double eta_socket1,
                     const NodeParams& params)
    : id_(id),
      eta_((eta_socket0 + eta_socket1) / 2.0),
      etas_({eta_socket0, eta_socket1}),
      params_(params),
      power_model_(params.power),
      roofline_(params.roofline) {
  PS_REQUIRE(eta_socket0 > 0.0 && eta_socket1 > 0.0,
             "package efficiency multipliers must be positive");
  frequency_cap_ghz_ = params_.power.max_frequency_ghz;
  packages_.reserve(QuartzSpec::kSocketsPerNode);
  for (std::size_t s = 0; s < QuartzSpec::kSocketsPerNode; ++s) {
    packages_.emplace_back(params.tdp_per_socket_watts,
                           params.min_rapl_per_socket_watts);
  }
}

double NodeModel::eta_of(std::size_t socket) const {
  PS_REQUIRE(socket < etas_.size(), "socket index out of range");
  return etas_[socket];
}

NodeModel::SocketCaps NodeModel::split_node_cap(double node_watts) const {
  const double package_total = node_watts - params_.dram_watts;
  SocketCaps caps{};
  const auto count = static_cast<double>(caps.size());
  caps.fill(package_total / count);
  if (params_.cap_split == CapSplitPolicy::kEfficiencyAware) {
    // Equal package frequencies need (C_i - idle) proportional to eta_i:
    // C_i = idle + eta_i * k with sum(C_i) = package_total.
    double eta_sum = 0.0;
    for (double eta : etas_) {
      eta_sum += eta;
    }
    const double k =
        (package_total - count * params_.power.idle_watts) / eta_sum;
    for (std::size_t s = 0; s < caps.size(); ++s) {
      caps[s] = params_.power.idle_watts + etas_[s] * std::max(k, 0.0);
    }
  }
  return caps;
}

double NodeModel::set_power_cap(double node_watts) {
  PS_REQUIRE(std::isfinite(node_watts) && node_watts > params_.dram_watts,
             "node power cap must exceed the uncappable DRAM power");
  const SocketCaps split = split_node_cap(node_watts);
  double applied = params_.dram_watts;
  for (std::size_t s = 0; s < packages_.size(); ++s) {
    applied += packages_[s].set_power_limit(split[s]);
  }
  return applied;
}

double NodeModel::power_cap() const {
  double total = params_.dram_watts;
  for (const auto& package : packages_) {
    total += package.power_limit();
  }
  return total;
}

double NodeModel::tdp() const noexcept {
  return params_.tdp_per_socket_watts *
             static_cast<double>(packages_.size()) +
         params_.dram_watts;
}

double NodeModel::min_cap() const noexcept {
  return params_.min_rapl_per_socket_watts *
             static_cast<double>(packages_.size()) +
         params_.dram_watts;
}

double NodeModel::set_frequency_cap(double ghz) {
  PS_REQUIRE(std::isfinite(ghz) && ghz > 0.0,
             "frequency cap must be positive and finite");
  frequency_cap_ghz_ = std::clamp(ghz, params_.power.min_frequency_ghz,
                                  params_.power.max_frequency_ghz);
  return frequency_cap_ghz_;
}

PhaseResult NodeModel::solve_compute(
    double gigabytes, double intensity, VectorWidth width,
    std::span<const double> socket_caps) const {
  return solve_compute(gigabytes, intensity, width, socket_caps,
                       frequency_cap_ghz_);
}

PhaseResult NodeModel::solve_compute(double gigabytes, double intensity,
                                     VectorWidth width,
                                     std::span<const double> socket_caps,
                                     double frequency_cap_ghz) const {
  PS_REQUIRE(socket_caps.size() == packages_.size(),
             "need one cap per package");
  // Fixed point: activity -> per-package frequency -> utilization ->
  // activity. The node runs in lockstep: the slowest package paces both
  // halves of the work (shared memory system, bulk-synchronous threads).
  double activity = 1.0;
  double frequency = params_.power.max_frequency_ghz;
  PhaseProfile profile{};
  const auto effective_frequency = [&](double a) {
    double slowest = frequency_cap_ghz;
    for (std::size_t s = 0; s < packages_.size(); ++s) {
      slowest = std::min(
          slowest,
          power_model_.frequency_at_cap(socket_caps[s], a, etas_[s]));
    }
    return slowest;
  };
  for (int iteration = 0; iteration < 16; ++iteration) {
    frequency = effective_frequency(activity);
    profile = roofline_.profile(gigabytes, intensity, width, frequency);
    const double next_activity = params_.activity.compute_activity(
        profile.cpu_utilization, profile.mem_utilization, width);
    if (std::abs(next_activity - activity) < 1e-9) {
      activity = next_activity;
      break;
    }
    activity = next_activity;
  }
  frequency = effective_frequency(activity);
  profile = roofline_.profile(gigabytes, intensity, width, frequency);

  PhaseResult result;
  result.seconds = profile.seconds;
  result.frequency_ghz = frequency;
  // Every package runs at the lockstep frequency; leakier packages burn
  // more power to hold it.
  result.power_watts = params_.dram_watts;
  for (std::size_t s = 0; s < packages_.size(); ++s) {
    result.power_watts += power_model_.power(frequency, activity, etas_[s]);
  }
  result.gflops = profile.gflops;
  result.energy_joules = result.power_watts * result.seconds;
  result.cpu_utilization = profile.cpu_utilization;
  result.mem_utilization = profile.mem_utilization;
  return result;
}

bool NodeModel::same_solver(const NodeModel& other) const noexcept {
  // The etas first: on a varied cluster they differ, and the comparison
  // fails before the parameter block is read.
  return etas_ == other.etas_ &&
         frequency_cap_ghz_ == other.frequency_cap_ghz_ &&
         params_ == other.params_;
}

const PhaseResult& NodeModel::compute_solution(double gigabytes,
                                               double intensity,
                                               VectorWidth width,
                                               const NodeModel* twin) {
  SolveKey key;
  key.gigabytes = gigabytes;
  key.intensity = intensity;
  key.width = width;
  // The cache key holds two sockets; nodes are dual-socket by
  // construction (QuartzSpec), so this covers every package.
  static_assert(QuartzSpec::kSocketsPerNode == 2);
  for (std::size_t s = 0; s < packages_.size(); ++s) {
    key.socket_caps[s] = packages_[s].power_limit();
  }
  key.frequency_cap_ghz = frequency_cap_ghz_;
  if (!compute_cache_valid_ || !(key == compute_key_)) {
    if (twin != nullptr && twin != this && twin->compute_cache_valid_ &&
        twin->compute_key_ == key && same_solver(*twin)) {
      compute_cached_ = twin->compute_cached_;
    } else {
      compute_cached_ = solve_compute(
          gigabytes, intensity, width,
          std::span<const double>(key.socket_caps, packages_.size()));
    }
    compute_key_ = key;
    compute_cache_valid_ = true;
  }
  return compute_cached_;
}

void NodeModel::accrue_phase(const PhaseResult& phase) {
  accrue_energy(phase.energy_joules, phase.seconds);
}

PhaseResult NodeModel::run_compute(double gigabytes, double intensity,
                                   VectorWidth width) {
  PhaseResult result = compute_solution(gigabytes, intensity, width);
  accrue_energy(result.energy_joules, result.seconds);
  return result;
}

PhaseResult NodeModel::run_poll(double seconds, const NodeModel* twin) {
  PS_REQUIRE(seconds >= 0.0, "poll duration cannot be negative");
  // The poll solution depends only on the limits; key and memoize it
  // like compute_solution so barrier-heavy iterations stay cheap.
  SolveKey key;
  for (std::size_t s = 0; s < packages_.size(); ++s) {
    key.socket_caps[s] = packages_[s].power_limit();
  }
  key.frequency_cap_ghz = frequency_cap_ghz_;
  if (!poll_cache_valid_ || !(key == poll_key_)) {
    if (twin != nullptr && twin != this && twin->poll_cache_valid_ &&
        twin->poll_key_ == key && same_solver(*twin)) {
      poll_cached_ = twin->poll_cached_;
    } else {
      poll_cached_ = PhaseResult{};
      poll_cached_.power_watts = poll_power(power_cap());
      double slowest = frequency_cap_ghz_;
      for (std::size_t s = 0; s < packages_.size(); ++s) {
        slowest = std::min(slowest, power_model_.frequency_at_cap(
                                        packages_[s].power_limit(),
                                        params_.activity.poll_activity,
                                        etas_[s]));
      }
      poll_cached_.frequency_ghz = slowest;
    }
    poll_key_ = key;
    poll_cache_valid_ = true;
  }
  PhaseResult result = poll_cached_;
  result.seconds = seconds;
  result.energy_joules = result.power_watts * seconds;
  accrue_energy(result.energy_joules, seconds);
  return result;
}

PhaseResult NodeModel::preview_compute(double gigabytes, double intensity,
                                       VectorWidth width,
                                       double node_cap_watts) const {
  return preview_compute(gigabytes, intensity, width, node_cap_watts,
                         frequency_cap_ghz_);
}

PhaseResult NodeModel::preview_compute(double gigabytes, double intensity,
                                       VectorWidth width,
                                       double node_cap_watts,
                                       double frequency_cap_ghz) const {
  PS_REQUIRE(node_cap_watts > params_.dram_watts,
             "node cap must exceed the uncappable DRAM power");
  PS_REQUIRE(frequency_cap_ghz > 0.0, "frequency cap must be positive");
  const double clamped =
      std::clamp(frequency_cap_ghz, params_.power.min_frequency_ghz,
                 params_.power.max_frequency_ghz);
  SocketCaps split = split_node_cap(node_cap_watts);
  // Previews honor the same firmware clamping a real write would apply.
  for (double& cap : split) {
    cap = std::clamp(cap, params_.min_rapl_per_socket_watts,
                     1.5 * params_.tdp_per_socket_watts);
  }
  return solve_compute(gigabytes, intensity, width, split, clamped);
}

double NodeModel::poll_power(double node_cap_watts) const {
  PS_REQUIRE(node_cap_watts > params_.dram_watts,
             "node cap must exceed the uncappable DRAM power");
  SocketCaps split = split_node_cap(node_cap_watts);
  for (double& cap : split) {
    cap = std::clamp(cap, params_.min_rapl_per_socket_watts,
                     1.5 * params_.tdp_per_socket_watts);
  }
  const double activity = params_.activity.poll_activity;
  double slowest = frequency_cap_ghz_;
  for (std::size_t s = 0; s < packages_.size(); ++s) {
    slowest = std::min(
        slowest,
        power_model_.frequency_at_cap(split[s], activity, etas_[s]));
  }
  double power = params_.dram_watts;
  for (std::size_t s = 0; s < packages_.size(); ++s) {
    power += power_model_.power(slowest, activity, etas_[s]);
  }
  return power;
}

void NodeModel::accrue_energy(double node_joules, double seconds) {
  const double dram_joules = params_.dram_watts * seconds;
  dram_energy_joules_ += dram_joules;
  const double package_joules =
      std::max(node_joules - dram_joules, 0.0) /
      static_cast<double>(packages_.size());
  for (auto& package : packages_) {
    package.accumulate_energy(package_joules);
  }
}

double NodeModel::read_energy_joules() {
  double total = dram_energy_joules_;
  for (auto& package : packages_) {
    total += package.read_energy_joules();
  }
  return total;
}

RaplPackageDomain& NodeModel::package(std::size_t socket) {
  PS_REQUIRE(socket < packages_.size(), "socket index out of range");
  return packages_[socket];
}

GpuModel& NodeModel::attach_gpu(const GpuParams& params) {
  return gpus_.emplace_back(params);
}

GpuModel& NodeModel::gpu(std::size_t index) {
  PS_REQUIRE(index < gpus_.size(), "GPU index out of range");
  return gpus_[index];
}

const GpuModel& NodeModel::gpu(std::size_t index) const {
  PS_REQUIRE(index < gpus_.size(), "GPU index out of range");
  return gpus_[index];
}

double NodeModel::set_gpu_power_cap(double watts) {
  PS_REQUIRE(!gpus_.empty(), "node has no GPU devices to cap");
  const double per_device = watts / static_cast<double>(gpus_.size());
  double applied = 0.0;
  for (auto& gpu : gpus_) {
    applied += gpu.set_power_cap(per_device);
  }
  return applied;
}

double NodeModel::gpu_power_cap() const noexcept {
  double total = 0.0;
  for (const auto& gpu : gpus_) {
    total += gpu.power_cap();
  }
  return total;
}

double NodeModel::gpu_min_cap() const noexcept {
  double total = 0.0;
  for (const auto& gpu : gpus_) {
    total += gpu.min_cap();
  }
  return total;
}

double NodeModel::gpu_tdp() const noexcept {
  double total = 0.0;
  for (const auto& gpu : gpus_) {
    total += gpu.tdp();
  }
  return total;
}

double NodeModel::read_gpu_energy_joules() const noexcept {
  double total = 0.0;
  for (const auto& gpu : gpus_) {
    total += gpu.read_energy_joules();
  }
  return total;
}

}  // namespace ps::hw
