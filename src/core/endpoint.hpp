#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.hpp"
#include "rm/allocation.hpp"
#include "sim/job_sim.hpp"

namespace ps::core {

/// Runtime -> RM telemetry message: everything the policies need to know
/// about one running job. The paper's conclusion notes that "there is not
/// currently an existing protocol or central mechanism for coordinating
/// power management decisions" — this header defines one, and the tests
/// prove it carries enough information to reproduce the coordinated
/// allocation exactly.
struct SampleMessage {
  std::uint64_t sequence = 0;
  std::string job_name;
  double min_settable_cap_watts = 0.0;
  std::vector<double> host_observed_watts;  ///< Demand estimate per host.
  std::vector<double> host_needed_watts;    ///< Balancer-needed per host.

  /// GPU-domain telemetry. Empty vectors = a single-domain job, whose
  /// GPU range below is 0.
  std::vector<double> host_gpu_observed_watts;
  std::vector<double> host_gpu_needed_watts;
  double gpu_min_cap_watts = 0.0;  ///< Per-host GPU-domain settable floor.
  double gpu_tdp_watts = 0.0;      ///< Per-host GPU-domain TDP.

  /// Multi-tenant service class (one byte on the wire).
  sim::SlaClass sla_class = sim::SlaClass::kStandard;

  [[nodiscard]] bool has_gpu_domain() const noexcept {
    return !host_gpu_needed_watts.empty();
  }
  [[nodiscard]] bool operator==(const SampleMessage&) const = default;
};

/// RM -> runtime control message: the caps one job must program.
/// `budget_epoch` tags the caps with the budget renegotiation epoch they
/// were computed under (0 = the construction-time budget). A client that
/// has heard a newer epoch rejects older-tagged caps as stale — they
/// would overspend a budget that has since shrunk.
struct PolicyMessage {
  std::uint64_t sequence = 0;
  std::string job_name;
  std::vector<double> host_caps_watts;
  /// GPU-domain caps. Empty = single-domain; otherwise one GPU cap per
  /// host.
  std::vector<double> host_gpu_caps_watts;
  std::uint64_t budget_epoch = 0;
  /// Fencing epoch of the daemon incarnation that computed the caps
  /// (0 = a daemon that has never failed over). A promoted standby runs
  /// at its predecessor's fence + 1; clients ratchet the highest fence
  /// ever heard and reject lower-fenced caps as the output of a fenced
  /// zombie primary — the same discipline as budget_epoch, but spanning
  /// daemon incarnations instead of budget renegotiations.
  std::uint64_t fence_epoch = 0;

  [[nodiscard]] bool has_gpu_domain() const noexcept {
    return !host_gpu_caps_watts.empty();
  }
  [[nodiscard]] bool operator==(const PolicyMessage&) const = default;
};

/// RM -> runtime budget-revision push: the daemon announces a
/// renegotiated system budget to every live client. Clients use it to
/// advance their session budget epoch (and so to reject caps computed
/// under superseded budgets); `emergency` marks a brownout-scale drop.
struct BudgetMessage {
  std::uint64_t epoch = 0;        ///< Renegotiation epoch (monotone).
  double budget_watts = 0.0;      ///< The revised system budget.
  bool emergency = false;

  [[nodiscard]] bool operator==(const BudgetMessage&) const = default;
};

/// Aggregator -> root telemetry: one rack's whole round in a single
/// frame. The per-rack AggregatorDaemon terminates its clients' sessions
/// and batches every local job's newest sample upward, so the root sees
/// one frame per rack per round instead of one per job — the RPC-batching
/// shape that lets a two-level tree reach 10k+ clients.
struct RackSampleMessage {
  std::string rack;                    ///< Rack name (single token).
  std::uint64_t round = 0;             ///< max sample sequence in the batch.
  std::vector<SampleMessage> samples;  ///< Name-ordered, names unique.

  [[nodiscard]] bool operator==(const RackSampleMessage&) const = default;
};

/// Root -> aggregator control: the renegotiated rack budget plus every
/// rack job's caps, batched into one frame per rack per round. The rack
/// budget is the sum of the embedded policies' caps — the root
/// renegotiates it each epoch simply by re-running the global allocation,
/// so sharding changes the fan-out topology but not a single watt.
/// Epoch semantics ride inside the embedded PolicyMessages (budget_epoch
/// and fence fields), exactly as on the flat wire.
struct RackPolicyMessage {
  std::string rack;
  std::uint64_t round = 0;             ///< max policy sequence in the batch.
  double rack_budget_watts = 0.0;      ///< Sum of embedded policy caps.
  std::vector<PolicyMessage> policies; ///< Name-ordered, names unique.

  [[nodiscard]] bool operator==(const RackPolicyMessage&) const = default;
};

/// Kept so call sites that name the exact form keep compiling: the one
/// binary grammar writes every double as its 8 IEEE-754 bytes, so a value
/// always survives the wire bit-for-bit — the reason a distributed
/// allocation can equal the in-memory one watt-for-watt.
enum class WireFidelity { kExact };

/// One binary grammar per message (core/wire.hpp holds the encoding of
/// each field type). Every payload opens with its wire::Tag byte and
/// carries every field, always, in this order:
///
///   sample        tag 1, varint sequence, string job, f64 min_cap,
///                 f64s observed, f64s needed, f64 gpu_min_cap,
///                 f64 gpu_tdp, f64s gpu_observed, f64s gpu_needed,
///                 byte sla_class
///   policy        tag 2, varint sequence, string job, f64s caps,
///                 f64s gpu_caps, varint budget_epoch, varint fence
///   budget        tag 3, varint epoch, f64 budget, byte emergency
///   rack-sample   tag 4, string rack, varint round, varint jobs, then
///                 each sample's fields (no tag)
///   rack-policy   tag 5, string rack, varint round, f64 rack_budget,
///                 varint jobs, then each policy's fields (no tag)
///
/// Empty GPU vectors mean a single-domain job (its GPU range is then 0);
/// a zero budget epoch or fence is written as 0.
///
/// Parsers throw ps::InvalidArgument on malformed input: a wrong tag,
/// truncated or trailing bytes, counts larger than the bytes left,
/// negative or non-finite watts, host counts that disagree, a GPU range
/// outside 0 < min <= TDP, an unknown SLA class, a zero budget epoch or
/// a non-positive budget. Rack parsers also require unique, name-ordered
/// jobs, a `round` equal to the max embedded sequence, and a rack budget
/// equal to the sum of the embedded caps.
[[nodiscard]] std::string serialize(const SampleMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kExact);
[[nodiscard]] std::string serialize(const PolicyMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kExact);
[[nodiscard]] std::string serialize(const BudgetMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kExact);
[[nodiscard]] std::string serialize(const RackSampleMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kExact);
[[nodiscard]] std::string serialize(const RackPolicyMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kExact);
[[nodiscard]] SampleMessage parse_sample_message(std::string_view payload);
[[nodiscard]] PolicyMessage parse_policy_message(std::string_view payload);
[[nodiscard]] BudgetMessage parse_budget_message(std::string_view payload);
[[nodiscard]] RackSampleMessage parse_rack_sample_message(
    std::string_view payload);
/// The same parse into `into`, overwriting every field: its samples are
/// read over in place, so a receiver that keeps one scratch message
/// reuses the names and vectors of the last frame (or those a
/// SampleLatch handed back). On a throw `into` holds an unspecified
/// partial parse.
void parse_rack_sample_message(std::string_view payload,
                               RackSampleMessage& into);
[[nodiscard]] RackPolicyMessage parse_rack_policy_message(
    std::string_view payload);

/// What kind of wire message a frame holds, judged by its tag byte only
/// (so a receiver can dispatch before committing to a full parse).
enum class WireMessageKind {
  kSample,
  kPolicy,
  kBudget,
  kRackSample,
  kRackPolicy,
  kUnknown
};
[[nodiscard]] WireMessageKind wire_message_kind(std::string_view payload);

/// Keeps the newest sample from one producer, enforcing the sequence
/// contract the resource-manager daemon relies on: stale or out-of-order
/// sequence numbers are ignored, the newest sequence wins, and offering a
/// duplicate sequence is idempotent. A sample is "fresh" until consumed,
/// which is how an allocation barrier knows every job has reported since
/// the last epoch.
class SampleLatch {
 public:
  /// Accepts `message` iff it is the first sample seen or its sequence is
  /// strictly newer than the held one. Returns whether it was accepted.
  /// An accepted sample is adopted by swap: `message` then holds the
  /// sample held before (a default one on the first offer), whose buffers
  /// the caller can parse the next sample into. A refused offer changes
  /// neither side.
  bool offer(SampleMessage& message);

  [[nodiscard]] const std::optional<SampleMessage>& latest() const noexcept {
    return latest_;
  }
  /// True if the held sample has not been consumed yet.
  [[nodiscard]] bool has_fresh() const noexcept { return fresh_; }
  /// Marks the held sample consumed and returns it. Throws
  /// ps::InvalidState when no sample was ever offered.
  const SampleMessage& consume();

 private:
  std::optional<SampleMessage> latest_;
  bool fresh_ = false;
};

/// A bidirectional in-memory endpoint (the GEOPM "endpoint" analogue:
/// in reality a shared-memory region between the RM daemon and the job
/// runtime). Samples flow runtime -> RM; policies flow RM -> runtime.
/// Messages cross the endpoint in serialized form, so anything that
/// round-trips here round-trips any byte transport.
class Endpoint {
 public:
  void post_sample(const SampleMessage& message);
  [[nodiscard]] std::optional<SampleMessage> receive_sample();
  void post_policy(const PolicyMessage& message);
  [[nodiscard]] std::optional<PolicyMessage> receive_policy();

  [[nodiscard]] std::size_t pending_samples() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] std::size_t pending_policies() const noexcept {
    return policies_.size();
  }

 private:
  std::deque<std::string> samples_;
  std::deque<std::string> policies_;
};

/// RM side: reconstructs a PolicyContext from received samples, one job
/// per sample in the given order. The span form reads samples where they
/// are held (a daemon's latched samples), so a round copies none of them.
[[nodiscard]] PolicyContext context_from_samples(
    double system_budget_watts, double node_tdp_watts,
    double uncappable_watts, std::span<const SampleMessage* const> samples);
[[nodiscard]] PolicyContext context_from_samples(
    double system_budget_watts, double node_tdp_watts,
    double uncappable_watts, const std::vector<SampleMessage>& samples);

/// RM side: splits an allocation into one PolicyMessage per job, each
/// tagged with the budget renegotiation epoch it was computed under.
[[nodiscard]] std::vector<PolicyMessage> make_policy_messages(
    const rm::PowerAllocation& allocation,
    const std::vector<SampleMessage>& samples, std::uint64_t sequence,
    std::uint64_t budget_epoch = 0);

/// Runtime side: programs the caps a PolicyMessage carries. Throws
/// ps::InvalidArgument if the message does not match the job.
void apply_policy_message(sim::JobSimulation& job,
                          const PolicyMessage& message);

}  // namespace ps::core
