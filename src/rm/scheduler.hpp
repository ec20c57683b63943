#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rm/job.hpp"

namespace ps::rm {

/// Nodes granted to a job by the scheduler.
struct NodeGrant {
  std::string job_name;
  std::vector<std::size_t> node_indices;  ///< Indices into the cluster.
};

/// What a job's admission reserves against the power budget.
enum class AdmissionBasis {
  /// Legacy: nodes only, power is not an admission resource.
  kNodes,
  /// Worst case: every node of a running job reserves its full TDP —
  /// safe and wasteful, the batch-HPC default the paper assumes.
  kWorstCaseTdp,
  /// Measured draw: a node reserves the observed per-node draw (EWMA fed
  /// by observe_draw), falling back to TDP until telemetry arrives. This
  /// is what makes oversubscription pay: admitted worst-case TDP may
  /// exceed the budget as long as measured draw fits ratio × budget.
  kMeasuredDraw,
};

/// Power-admission configuration. The default (kNodes) is byte-identical
/// to the pre-multi-tenant scheduler.
struct AdmissionOptions {
  AdmissionBasis basis = AdmissionBasis::kNodes;
  /// System power budget the gate admits against (required > 0 for the
  /// power bases).
  double budget_watts = 0.0;
  /// Admit while reserved watts stay within ratio × budget. 1.0 is no
  /// oversubscription; >1 bets that admitted jobs will not all draw
  /// their reservation at once (the degradation layer covers the bet).
  double oversubscription_ratio = 1.0;
  /// Per-node worst-case draw (required > 0 for the power bases).
  double node_tdp_watts = 0.0;
  /// Reject (rather than queue) best_effort submissions once this many
  /// best_effort jobs already wait. 0 = unbounded queueing.
  std::size_t best_effort_queue_limit = 0;
};

/// FIFO node scheduler over a fixed pool of node indices.
///
/// Minimal SLURM analogue: jobs are submitted, started in order when
/// enough nodes are free, and release their nodes on completion.
///
/// Multi-tenancy: the queue drains in SLA-class-major order
/// (latency_critical first, best_effort last; FIFO within a class), and
/// with a power-admission basis configured a job must also fit the
/// power gate (reserved watts ≤ oversubscription_ratio × budget) to
/// start — so when power is scarce, best_effort work is what queues.
/// A single-class queue under the default options behaves exactly like
/// the original FIFO scheduler.
class Scheduler {
 public:
  /// Pool of node indices this scheduler may hand out.
  explicit Scheduler(std::vector<std::size_t> pool,
                     const AdmissionOptions& admission = {});
  /// Convenience: a pool of indices [0, node_count).
  explicit Scheduler(std::size_t node_count,
                     const AdmissionOptions& admission = {});

  /// Enqueues a job. Throws ps::InvalidArgument if the job could never be
  /// satisfied (more nodes than the whole pool) or a job with the same
  /// name is already queued or running. Throws on admission-policy
  /// rejections too — use try_submit to observe those as a result.
  void submit(const JobRequest& request);

  /// Like submit, but admission-policy rejections (best_effort queue
  /// limit reached, or a best_effort job that can never fit the power
  /// gate) return false instead of throwing. Structurally invalid
  /// requests still throw.
  [[nodiscard]] bool try_submit(const JobRequest& request);

  /// Starts as many queued jobs (in class-major FIFO order) as currently
  /// fit both the node pool and the power gate. Returns the grants made
  /// by this call.
  ///
  /// If `backfill_ok` is provided, EASY-style backfilling is enabled:
  /// when the head of the queue does not fit, later queued jobs that do
  /// fit may jump ahead — but only if `backfill_ok(request)` confirms
  /// they will not delay the head job's reservation (the caller owns the
  /// time model; see facility::FacilityManager). Without the callback,
  /// the head blocks everything behind it, as before.
  std::vector<NodeGrant> start_pending(
      const std::function<bool(const JobRequest&)>& backfill_ok = {});

  /// Completes a running job, returning its nodes to the free pool (and
  /// its watts to the power gate). Throws ps::NotFound for unknown jobs.
  void complete(const std::string& job_name);

  /// Feeds the power gate the latest measured draw: `total_watts` across
  /// `busy_node_count` running nodes updates the per-node EWMA that
  /// kMeasuredDraw admission reserves with. Ignored while no node runs.
  void observe_draw(double total_watts, std::size_t busy_node_count);

  /// Takes a *free* node out of service (hardware failure / maintenance).
  /// Throws ps::InvalidArgument if the node is not currently free.
  void quarantine(std::size_t node_index);

  /// Returns a quarantined node to the free pool.
  void restore(std::size_t node_index);

  [[nodiscard]] std::size_t quarantined_count() const noexcept {
    return quarantined_.size();
  }

  [[nodiscard]] std::size_t free_node_count() const noexcept;
  [[nodiscard]] std::size_t queued_count() const noexcept;
  /// The request blocking the queue — the first in class-major order —
  /// or nullptr when empty. Invalidated by submit/start_pending/complete.
  [[nodiscard]] const JobRequest* queued_head() const noexcept;
  [[nodiscard]] std::size_t running_count() const noexcept;
  [[nodiscard]] bool is_running(const std::string& job_name) const;
  /// Nodes of a running job. Throws ps::NotFound for unknown jobs.
  [[nodiscard]] std::span<const std::size_t> nodes_of(
      const std::string& job_name) const;

  /// Admission-policy rejections so far (try_submit returning false).
  [[nodiscard]] std::size_t admission_rejections() const noexcept {
    return admission_rejections_;
  }
  /// Queue positions (submission order among the queued jobs) in drain
  /// order: class-major (latency_critical first), FIFO within a class.
  /// Identity for a single-class queue.
  [[nodiscard]] std::vector<std::size_t> drain_order() const;

  /// Watts currently reserved by running jobs against the power gate
  /// (0 under the kNodes basis).
  [[nodiscard]] double reserved_watts() const noexcept {
    return reserved_watts_;
  }
  /// The per-node draw estimate the gate currently reserves with.
  [[nodiscard]] double estimated_node_watts() const noexcept;

 private:
  /// drain_order().front() of a non-empty queue, found by one scan for
  /// the first entry of the highest class present.
  [[nodiscard]] std::size_t head_position() const noexcept;
  /// True when the power gate admits the request right now.
  [[nodiscard]] bool power_fits(const JobRequest& request) const;
  [[nodiscard]] double reservation_for(const JobRequest& request) const;

  AdmissionOptions admission_;
  std::vector<std::size_t> free_nodes_;  ///< LIFO free list.
  std::vector<std::size_t> quarantined_;
  std::deque<JobRequest> queue_;
  std::unordered_map<std::string, NodeGrant> running_;
  std::unordered_map<std::string, double> reservations_;
  double reserved_watts_ = 0.0;
  double measured_node_watts_ = 0.0;  ///< EWMA; valid once measured_seen_.
  bool measured_seen_ = false;
  std::size_t admission_rejections_ = 0;
};

}  // namespace ps::rm
