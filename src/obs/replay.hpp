#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace ps::obs {

/// Aggregate view of a trace: how many events, which streams, which
/// event types. Deterministically ordered.
struct TraceSummary {
  std::size_t event_count = 0;
  std::uint64_t first_tick = 0;
  std::uint64_t last_tick = 0;
  /// category -> events, sorted by category.
  std::vector<std::pair<std::string, std::size_t>> category_counts;
  /// "category/name" -> events, sorted.
  std::vector<std::pair<std::string, std::size_t>> event_counts;
};

[[nodiscard]] TraceSummary summarize(std::span<const TraceEvent> events);

/// Arg key of host `host`'s cap within a "caps" event ("c0", "c1", ...).
/// Shared by the emitters (coordination loop, daemon) and the replayer.
[[nodiscard]] std::string cap_key(std::size_t host);

/// Arg key of host `host`'s GPU-domain cap within a "caps" event
/// ("g0", "g1", ...). Only present for heterogeneous jobs; CPU-only
/// traces never carry g-keys, so their byte form is unchanged.
[[nodiscard]] std::string gpu_cap_key(std::size_t host);

/// A "caps" event: `args` (the job and its tags), then one cap per host
/// and, for a heterogeneous job, one GPU-domain cap per host — at exact
/// numeric fidelity, the replayer's input.
[[nodiscard]] TraceEvent caps_event(std::uint64_t tick,
                                    std::string_view category,
                                    std::vector<TraceArg> args,
                                    std::span<const double> caps,
                                    std::span<const double> gpu_caps);

/// One job's caps within a reconstructed allocation step.
struct ReplayedJobCaps {
  std::string job;
  std::vector<double> caps_watts;
  /// GPU-domain caps per host; empty for single-domain jobs.
  std::vector<double> gpu_caps_watts;

  [[nodiscard]] bool operator==(const ReplayedJobCaps&) const = default;
};

/// One allocation step (coordination epoch or daemon round) rebuilt from
/// "caps" + "epoch"/"round" events alone — the proof that the trace is a
/// complete record of what the stack programmed.
struct ReplayedAllocation {
  std::uint64_t tick = 0;
  double budget_watts = 0.0;
  std::uint64_t budget_epoch = 0;
  bool emergency = false;
  std::vector<ReplayedJobCaps> jobs;

  [[nodiscard]] double total_watts() const;
};

/// Reconstructs the watt-allocation sequence from a trace's deterministic
/// streams ("coord" and "daemon"). Events must be tick-ordered within
/// each stream, the way the sink recorded them. A trace with both streams
/// (an in-memory run traced alongside a daemon) replays as two
/// interleaved sequences ordered by first appearance; in practice traces
/// carry one stream.
[[nodiscard]] std::vector<ReplayedAllocation> replay_allocations(
    std::span<const TraceEvent> events);

/// Human-readable trace report: the summary, then (with `replay`) the
/// reconstructed allocation sequence.
void print_trace_report(std::ostream& out, std::span<const TraceEvent> events,
                        bool replay);

}  // namespace ps::obs
