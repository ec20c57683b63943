#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ps::net {

/// One registered job as persisted by the daemon: enough to rehydrate the
/// session registry after a restart. Samples are deliberately absent —
/// clients re-send their current sample on reconnect, so persisting them
/// would only risk replaying stale telemetry.
struct SnapshotJob {
  std::string name;
  std::uint64_t sequence = 0;  ///< Sequence of the last policy sent.
  std::vector<double> caps_watts;
  /// GPU-domain caps of the last policy sent; empty for single-domain
  /// jobs. When present it holds one cap per host (same length as
  /// `caps_watts`).
  std::vector<double> gpu_caps_watts;

  [[nodiscard]] bool operator==(const SnapshotJob&) const = default;
};

/// Durable daemon state: the facility budget it was enforcing, whether
/// the min-jobs launch barrier had been met, and the last caps pushed to
/// every registered job. A daemon restarted over a snapshot re-admits the
/// jobs without re-running the launch barrier and re-serves their last
/// caps, so the cluster-wide budget invariant survives the restart.
struct DaemonSnapshot {
  double system_budget_watts = 0.0;
  /// Budget renegotiation epoch in force when the snapshot was taken
  /// (0 = the construction-time budget was never revised). Persisting it
  /// is what stops a restarted daemon from resurrecting a pre-brownout
  /// budget: the restored epoch wins over the configured one.
  std::uint64_t budget_epoch = 0;
  /// Whether the revision at budget_epoch was an emergency one. A
  /// restored daemon resyncs its clients with it, so they hear the same
  /// budget message the previous incarnation pushed.
  bool budget_emergency = false;
  /// Fencing epoch of the daemon incarnation that wrote the snapshot
  /// (0 = a control plane that has never failed over). A standby promotes
  /// at fence + 1; persisting the fence keeps a restart of a promoted
  /// daemon from regressing below caps its clients already ratcheted.
  std::uint64_t fence_epoch = 0;
  bool launch_barrier_met = false;
  std::uint64_t allocations = 0;  ///< Monotone: detects stale snapshots.
  std::vector<SnapshotJob> jobs;

  [[nodiscard]] bool operator==(const DaemonSnapshot&) const = default;
  /// Sum of all persisted caps — what the snapshot claims is allocated.
  [[nodiscard]] double allocated_watts() const;
};

/// Binary serialization in the wire grammar (core/wire.hpp), every field
/// always present, doubles bit-exact:
///
///   tag 6, f64 budget, varint budget_epoch, varint fence, byte flags
///   (bit 0 barrier met, bit 1 budget emergency, no other bit), varint
///   allocations, varint jobs, then per job: string name,
///   varint sequence, f64s caps, f64s gpu_caps (empty = single-domain),
///   and last a 4-byte little-endian CRC-32 of every byte before it.
[[nodiscard]] std::string serialize(const DaemonSnapshot& snapshot);

/// Parses and validates a serialized snapshot. Throws ps::InvalidArgument
/// on malformed input: a wrong tag (a snapshot file in any older form),
/// truncated bodies, unknown flag bits, negative or non-finite watts, a
/// non-positive budget, jobs without caps or with GPU caps for a different host
/// count, duplicated job names, and checksum mismatches (a torn write).
[[nodiscard]] DaemonSnapshot parse_snapshot(std::string_view bytes);

/// Atomically replaces the snapshot at `path` (write to a sibling temp
/// file, fsync, rename) so a crash mid-write can never leave a torn
/// snapshot where the next boot will read it. Throws ps::Error on I/O
/// failure.
void save_snapshot(const std::string& path, const DaemonSnapshot& snapshot);

/// Loads the snapshot at `path`. Returns nullopt when the file does not
/// exist or fails validation (corrupt snapshots must degrade a restart to
/// a cold start, never crash the daemon).
[[nodiscard]] std::optional<DaemonSnapshot> load_snapshot(
    const std::string& path);

}  // namespace ps::net
