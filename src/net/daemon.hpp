#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/budget_governor.hpp"
#include "core/endpoint.hpp"
#include "core/policy.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/session.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "rm/power_manager.hpp"

namespace ps::net {

struct DaemonOptions {
  /// The site's system-wide power budget (required, > 0).
  double system_budget_watts = 0.0;
  /// The policy re-run on every allocation round.
  core::PolicyKind policy = core::PolicyKind::kMixedAdaptive;
  /// Node hardware limits forwarded into the PolicyContext.
  double node_tdp_watts = 256.0;
  double uncappable_watts = 16.0;
  /// Launch barrier: no allocation happens until this many jobs have
  /// registered — a coordinated mix starts from one uniform share, like
  /// the in-memory CoordinationLoop. Once met, allocations continue with
  /// whatever jobs remain (an evicted job returns watts to the pool).
  std::size_t min_jobs = 1;
  /// Connections silent for longer than this are closed on a tick.
  std::chrono::milliseconds idle_timeout{30'000};
  std::chrono::milliseconds tick_interval{100};

  /// Root mode: additionally accept rack-aggregate frames from per-rack
  /// AggregatorDaemons (the two-level daemon tree). One rack session
  /// carries many jobs; the root allocates over the union of all jobs
  /// exactly as a flat daemon would — sharding changes the fan-out
  /// topology, not a single watt — and replies one batched rack-policy
  /// frame per rack per round, whose rack budget it renegotiates every
  /// epoch as the sum of that rack's caps. Off by default: a flat daemon
  /// rejects rack frames as protocol errors, keeping the v1 contract
  /// strict.
  bool root_mode = false;
  /// Readiness backend for the event loop (poll or epoll), selectable at
  /// construction; defaults to PS_EVENT_BACKEND / platform default.
  EventBackend event_backend = default_event_backend();

  /// Disconnect grace: a registered job keeps its seat (and its watts)
  /// this long after its connection drops, so a client that reconnects
  /// promptly resumes without disturbing the allocation. Past the grace
  /// the job is evicted and its watts return to the pool.
  std::chrono::milliseconds reclaim_timeout{2'000};
  /// Liveness: a connected job that has not produced a sample for this
  /// long while another job's fresh sample is waiting on it is treated
  /// as dead-but-connected (half-open peer) and evicted.
  std::chrono::milliseconds heartbeat_timeout{10'000};
  /// Protocol-error quarantine: after this many protocol errors a job is
  /// evicted and barred from re-registering for quarantine_period, so a
  /// misbehaving client cannot wedge the allocation round forever.
  std::size_t quarantine_errors = 3;
  std::chrono::milliseconds quarantine_period{1'000};
  /// Hard bound on quarantine bookkeeping: the record of evicted
  /// misbehaving jobs must stay O(1) over an unbounded churn of client
  /// identities, so inserting past the bound drops the entry closest to
  /// expiry (the least valuable one). Expired entries are also pruned on
  /// every tick rather than lazily on re-registration.
  std::size_t max_quarantine_entries = 1024;

  /// When non-empty, the daemon persists a write-ahead snapshot of its
  /// coordination state (budget, launch barrier, every job's last caps)
  /// here before each reply leaves, and rehydrates from it at startup —
  /// a restarted daemon re-admits its jobs without re-running the launch
  /// barrier and re-serves their last caps on demand.
  std::string snapshot_path;

  /// Server-side transport decorator applied to every accepted or
  /// adopted connection (e.g. fault::FaultyTransport in tests). Null
  /// means connections are used as-is.
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
      transport_wrapper;

  /// High-availability seams (all inert by default; a single-daemon
  /// deployment that sets none of these keeps byte-identical wire
  /// traffic, snapshots, and golden traces).
  ///
  /// In-memory boot state: a promoted standby constructs its daemon over
  /// the replicated snapshot instead of a disk file. Takes priority over
  /// snapshot_path restoration; the same validation rules apply (a
  /// revised budget wins over the configured one, adopted scheduled
  /// revisions do not replay).
  std::optional<DaemonSnapshot> initial_state;
  /// This incarnation's fencing epoch. Non-zero stamps every outgoing
  /// PolicyMessage (including resends) and the snapshot, so clients that
  /// have heard a newer fence reject this daemon's caps as zombie
  /// output. A restored snapshot's higher fence wins over this value.
  std::uint64_t fence_epoch = 0;
  /// Write-ahead replication sink: invoked with the freshly built state
  /// snapshot at every point the daemon persists (before round replies
  /// leave, on revision adoption, once per eviction batch) — even when
  /// snapshot_path is empty. The HA Replicator plugs in here.
  std::function<void(const DaemonSnapshot&)> replication_sink;
  /// Fencing gate: when set and returning true, allocation rounds are
  /// refused (counted in stats.rounds_fenced) — the primary has lost its
  /// standby's acks for longer than the fence window and must assume a
  /// promoted successor exists. Registrations and stored-cap resends
  /// still answer; their stale fence tag is what failed-over clients
  /// reject.
  std::function<bool()> fence_check;

  /// Scheduled budget revisions, sorted by at_epoch. The daemon adopts a
  /// revision with at_epoch e before the allocation round that consumes
  /// sample sequence e + 1 — the round that corresponds to coordination
  /// epoch e's RM step — so a socket run replays the exact budget
  /// trajectory CoordinationLoop::run_dynamic follows in memory.
  std::vector<core::BudgetRevision> budget_revisions;

  /// Observability seam. With a trace sink attached the daemon emits the
  /// "daemon" stream (restore/barrier/revision/caps/round/snapshot on the
  /// allocation-round logical clock — deterministic for a seeded run) and
  /// the "netio" stream (session lifecycle, eviction, quarantine — these
  /// follow transport timing and are excluded from golden comparisons);
  /// with a metrics registry, "net.daemon.*" counters. Inert by default.
  obs::Observability obs{};
};

struct DaemonStats {
  std::size_t sessions_accepted = 0;
  std::size_t sessions_closed = 0;
  std::size_t sessions_timed_out = 0;
  std::size_t samples_received = 0;
  std::size_t samples_stale = 0;
  std::size_t protocol_errors = 0;
  std::size_t allocations = 0;
  std::size_t policies_sent = 0;
  std::size_t budget_violations = 0;

  /// How many times the min-jobs launch barrier was crossed. Stays 0 on
  /// a daemon restored from a snapshot whose barrier was already met —
  /// the proof that a restart does not re-run the launch barrier.
  std::size_t launch_barriers = 0;
  std::size_t jobs_restored = 0;   ///< Records rehydrated from snapshot.
  std::size_t sessions_rehydrated = 0;  ///< Reconnects into a live record.
  std::size_t jobs_evicted = 0;
  std::size_t quarantines = 0;
  std::size_t quarantine_rejections = 0;
  /// Stored caps sent again: lost-reply retransmissions and the caps a
  /// kept round answers with.
  std::size_t policies_resent = 0;
  std::size_t snapshots_written = 0;
  double watts_reclaimed = 0.0;  ///< Total returned to the pool by eviction.
  double reclaim_seconds_total = 0.0;  ///< Disconnect -> reclaim latency sum.

  /// Dynamic-budget accounting. `budget_watts` / `budget_epoch` are the
  /// budget currently enforced (epoch 0 until the first revision).
  double budget_watts = 0.0;
  std::uint64_t budget_epoch = 0;
  std::size_t budget_revisions_applied = 0;
  std::size_t budget_revisions_stale = 0;  ///< Rejected: epoch not newer.
  std::size_t budget_pushes = 0;     ///< BudgetMessages queued to clients.
  std::size_t emergency_clamps = 0;  ///< Rounds that took the clamp path.
  /// Budget revisions whose adoption clamped the stored caps.
  std::size_t adoption_clamps = 0;

  /// High-availability accounting.
  std::uint64_t fence_epoch = 0;      ///< This incarnation's fence.
  std::size_t rounds_fenced = 0;      ///< Allocations refused while fenced.
  std::size_t replication_updates = 0;  ///< States handed to the sink.
  /// Quarantine bookkeeping (the bounded-memory satellite): the current
  /// entry count and how many were dropped at the bound.
  std::size_t quarantine_entries = 0;
  std::size_t quarantine_entries_dropped = 0;

  /// Hierarchical-coordination accounting (root mode).
  std::size_t rack_sessions = 0;        ///< Registered racks, current.
  std::size_t rack_jobs = 0;  ///< Jobs bound through rack sessions, current.
  std::size_t rack_frames_received = 0; ///< Aggregate sample frames in.
  std::size_t rack_policies_sent = 0;   ///< Batched policy frames out.
  std::size_t rack_policies_resent = 0; ///< Batched stored-cap resends.
};

/// The resource-manager power daemon: accepts many concurrent runtime
/// clients over any combination of Unix-domain, TCP, and loopback
/// transports, tracks one job record per job name, and coordinates them
/// with the configured core policy.
///
/// Protocol (framed endpoint messages, exact numeric fidelity):
///   1. A client's first SampleMessage registers (or re-attaches) its
///      connection to the job record named by the sample. One live
///      connection per job name; a reconnect within the grace window
///      resumes the existing record.
///   2. Samples are sequence-checked per record (core::SampleLatch):
///      a sample whose sequence the daemon has already answered gets the
///      stored caps resent (the reply was lost); newest wins otherwise.
///   3. When every registered record holds a fresh sample (and the
///      min_jobs launch barrier has been met), the daemon allocates:
///      all sequence-0 samples -> the uniform bootstrap share; otherwise
///      the configured policy over every record's latest sample, in
///      job-name order. Each job is sent a PolicyMessage echoing its
///      own sample sequence; the caps are persisted first (write-ahead)
///      when a snapshot path is configured. A round whose output breaks
///      the budget while the stored caps still fit keeps them: each job
///      is sent its stored caps under the round's sequence (a resend —
///      no allocation is counted or persisted).
///   4. A disconnect starts the reclaim_timeout grace; eviction (grace
///      expiry, heartbeat stall, or protocol-error quarantine) frees the
///      job's watts for the next round.
///
/// run() serves the event loop on the calling thread; stop(), adopt()
/// and stats() are safe to call from other threads.
class PowerDaemon {
 public:
  explicit PowerDaemon(const DaemonOptions& options);
  ~PowerDaemon();

  PowerDaemon(const PowerDaemon&) = delete;
  PowerDaemon& operator=(const PowerDaemon&) = delete;

  /// Binds a listener. May be called multiple times (one per transport)
  /// before or between run() calls, from the owning thread.
  void listen_unix(const std::string& path);
  /// Port 0 picks an ephemeral port; see tcp_port().
  void listen_tcp(std::uint16_t port);
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return sessions_.tcp_port();
  }

  /// Adopts a pre-connected socket (the loopback transport). Thread-safe;
  /// the session becomes live on the next loop cycle.
  void adopt(Socket socket);
  /// Adopts a pre-connected transport (e.g. a fault-injecting decorator).
  void adopt(std::unique_ptr<Transport> transport);

  /// Serves until stop(). Blocks the calling thread.
  void run();
  /// Thread-safe: makes run() return after the current cycle.
  void stop();

  /// Thread-safe: renegotiates the system budget from outside the loop
  /// (a facility manager reacting to a live headroom signal). Applied on
  /// the next loop cycle: a stale epoch is rejected, a newer one becomes
  /// the enforced budget, every live client is pushed a BudgetMessage,
  /// stored caps that no longer fit are emergency-clamped (proportional,
  /// floor-respecting), and the snapshot is rewritten so a restart
  /// cannot resurrect the superseded budget.
  void revise_budget(const core::BudgetRevision& revision);

  [[nodiscard]] DaemonStats stats() const;
  [[nodiscard]] const DaemonOptions& options() const noexcept {
    return options_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// A job's seat at the coordination table. Outlives its connection: a
  /// record persists across reconnects (and, via the snapshot, across
  /// daemon restarts) until the job is evicted.
  struct JobRecord {
    core::SampleLatch latch;
    std::vector<double> last_caps_watts;
    /// GPU-domain caps of the last policy; empty for single-domain jobs.
    std::vector<double> last_gpu_caps_watts;
    std::uint64_t last_sequence = 0;
    bool have_policy = false;
    int session_fd = -1;  ///< -1: disconnected (grace running).
    Clock::time_point disconnected_at{};
    Clock::time_point last_sample_at{};
    std::size_t protocol_errors = 0;
  };

  void on_session_opened();
  void handle_frame(int fd, NetSession& session, const std::string& payload);
  void handle_sample_frame(int fd, NetSession& session,
                           core::SampleMessage sample);
  void handle_rack_frame(int fd, NetSession& session,
                         const std::string& payload);
  /// Name-keyed: iteration order is the deterministic round order.
  using JobTable = std::map<std::string, JobRecord>;
  /// What bind_job_record did: the job's table entry, and whether this
  /// call attached it to the fd (a new record, or one re-bound from
  /// another session or from grace) rather than finding it already bound
  /// there.
  struct JobBinding {
    JobTable::iterator slot;
    bool attached = false;
  };
  /// Quarantine gate + job-record attach for one sample's job. `hint` is
  /// used instead of a table search when its key is `job_name`; pass
  /// jobs_.end() when there is no guess.
  JobBinding bind_job_record(int fd, const std::string& job_name,
                             JobTable::iterator hint);
  /// Registration-time budget-epoch resync push (throws if the push
  /// kills the session).
  void send_budget_resync(int fd, NetSession& session);
  /// What a frame's samples did to the counters: tallied per sample,
  /// committed once per frame, before any reply to the frame is queued.
  struct SampleCounts {
    std::size_t received = 0;
    std::size_t stale = 0;
    std::size_t rack_jobs = 0;  ///< Jobs a rack frame attached.
  };
  /// Returns true when the sequence was already answered — the caller
  /// must resend the stored caps; otherwise offers the sample. Either
  /// way the sample is tallied in `counts`.
  bool offer_sample(JobRecord& record, core::SampleMessage&& sample,
                    Clock::time_point now, SampleCounts& counts);
  /// Adds `counts` to stats() under one lock.
  void commit_sample_counts(const SampleCounts& counts);
  void close_session(int fd, NetSession& session, CloseCause cause);
  /// Evicts a batch of jobs (unknown names are skipped) and reclaims
  /// their watts, with one conservation check and, when any job was
  /// evicted, one snapshot over the whole batch.
  void evict_jobs(const std::vector<std::string>& names);
  void queue_message(int fd, NetSession& session,
                     const core::PolicyMessage& message);
  [[nodiscard]] core::PolicyMessage stored_policy(const std::string& name,
                                                  const JobRecord& record)
      const;
  void resend_last_policy(int fd, NetSession& session, JobRecord& record);
  void try_allocate();
  void allocate_once();
  void maybe_write_snapshot();
  void restore_state(const DaemonSnapshot& snapshot);
  void record_quarantine(const std::string& name, Clock::time_point until);
  void prune_quarantine(Clock::time_point now);
  void on_tick();
  void apply_pending_revisions();
  /// A revision's consequences once set_budget has ruled on it: stats
  /// and its "revision" event at `tick`, and, when adopted, the stored
  /// caps clamped, every client pushed the budget and the state persisted.
  void on_revision(const core::BudgetRevision& revision, bool adopted,
                   std::uint64_t tick);
  /// The budget in force as a BudgetMessage frame, carrying the
  /// emergency flag of the revision that set it.
  [[nodiscard]] std::string budget_frame() const;
  void push_budget_to_sessions();
  void clamp_stored_caps();
  /// Rounds completed across incarnations — the "netio" stream's tick.
  [[nodiscard]] std::uint64_t completed_rounds() const;

  DaemonOptions options_;
  std::unique_ptr<core::Policy> policy_;
  EventLoop loop_;
  SessionTable sessions_;
  JobTable jobs_;
  /// Per-level round latency (barrier satisfied -> replies flushed) and
  /// fan-out gauges; null when no metrics registry is attached.
  obs::Histogram* round_latency_ = nullptr;
  std::map<std::string, Clock::time_point> quarantine_;
  bool launch_barrier_met_ = false;
  std::uint64_t allocation_epoch_base_ = 0;  ///< From a restored snapshot.
  bool in_allocate_ = false;
  bool allocate_again_ = false;
  /// The budget currently enforced (options budget until revised, then
  /// the newest adopted revision; a restored snapshot's revised budget
  /// wins over the configured one). Only its budget and stale-epoch rule
  /// are used: the daemon programs no hosts itself.
  rm::SystemPowerManager budget_;
  bool budget_emergency_ = false;
  core::RevisionSchedule schedule_;
  /// This incarnation's fencing epoch: the configured one, or a restored
  /// snapshot's if higher. Stamped on every policy and snapshot when > 0.
  std::uint64_t fence_epoch_ = 0;

  mutable std::mutex shared_mutex_;  ///< Guards stats_ and pending_.
  DaemonStats stats_;
  std::vector<core::BudgetRevision> pending_revisions_;
};

}  // namespace ps::net
