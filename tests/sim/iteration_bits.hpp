#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>

#include "sim/job_sim.hpp"

namespace ps::sim {

/// Bit pattern of a double: pinned-value tests compare these, so any
/// change in rounding or evaluation order shows up as a failure.
inline std::uint64_t bits_of(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// FNV-1a over the bit pattern of every per-host field of an iteration
/// (CPU and GPU telemetry alike), in host order.
inline std::uint64_t host_digest(const IterationResult& result) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  };
  for (const HostIterationResult& host : result.hosts) {
    mix(host.node);
    mix(host.waiting_host ? 1 : 0);
    for (const double field :
         {host.busy_seconds, host.poll_seconds, host.energy_joules,
          host.gflop, host.frequency_ghz, host.average_power_watts,
          host.gpu_busy_seconds, host.gpu_energy_joules, host.gpu_gflop,
          host.gpu_clock_ghz, host.gpu_average_power_watts}) {
      mix(bits_of(field));
    }
  }
  return digest;
}

/// One iteration's expected bits: the job-level fields one by one (so a
/// failure names the field), the per-host fields through host_digest.
struct PinnedIteration {
  std::uint64_t iteration_seconds;
  std::uint64_t total_energy_joules;
  std::uint64_t total_gflop;
  std::uint64_t average_node_power_watts;
  std::size_t critical_host_index;
  std::uint64_t hosts;
};

/// Expected bits of a job's JobTotals after a pinned script.
struct PinnedTotals {
  std::uint64_t elapsed_seconds;
  std::uint64_t energy_joules;
  std::uint64_t gflop;
};

inline void expect_pinned(const IterationResult& result,
                          const PinnedIteration& want) {
  EXPECT_EQ(bits_of(result.iteration_seconds), want.iteration_seconds);
  EXPECT_EQ(bits_of(result.total_energy_joules), want.total_energy_joules);
  EXPECT_EQ(bits_of(result.total_gflop), want.total_gflop);
  EXPECT_EQ(bits_of(result.average_node_power_watts),
            want.average_node_power_watts);
  EXPECT_EQ(result.critical_host_index, want.critical_host_index);
  EXPECT_EQ(host_digest(result), want.hosts);
}

inline void expect_pinned(const JobTotals& totals, const PinnedTotals& want) {
  EXPECT_EQ(bits_of(totals.elapsed_seconds), want.elapsed_seconds);
  EXPECT_EQ(bits_of(totals.energy_joules), want.energy_joules);
  EXPECT_EQ(bits_of(totals.gflop), want.gflop);
}

/// Steps a job through a pinned script: each iteration run() takes is
/// checked against the next pinned entry, and finish() checks that the
/// script used every entry and that the job's totals match.
class PinnedScript {
 public:
  PinnedScript(JobSimulation& job, std::span<const PinnedIteration> pinned)
      : job_(job), pinned_(pinned) {}

  void run(int iterations = 1) {
    for (int i = 0; i < iterations; ++i) {
      ASSERT_LT(next_, pinned_.size());
      expect_pinned(job_.run_iteration(), pinned_[next_++]);
    }
  }

  void finish(const PinnedTotals& totals) {
    EXPECT_EQ(next_, pinned_.size());
    expect_pinned(job_.totals(), totals);
  }

 private:
  JobSimulation& job_;
  std::span<const PinnedIteration> pinned_;
  std::size_t next_ = 0;
};

}  // namespace ps::sim
