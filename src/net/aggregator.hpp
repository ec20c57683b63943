#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/endpoint.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace ps::net {

struct AggregatorOptions {
  /// The rack this aggregator speaks for (required, one wire token).
  std::string rack;
  /// Connects (or reconnects) the upstream link to the parent daemon.
  /// Invoked from the loop thread; may return nullptr to signal "parent
  /// unreachable right now" (retried on the next tick).
  std::function<std::unique_ptr<Transport>()> parent_connector;

  /// Local launch barrier: no aggregate is forwarded until this many
  /// jobs have registered. Mirrors the daemon's min_jobs so a rack does
  /// not forward a half-assembled mix upward.
  std::size_t min_jobs = 1;
  std::chrono::milliseconds tick_interval{20};
  /// Local connections silent for longer than this are closed on a tick.
  std::chrono::milliseconds idle_timeout{30'000};
  /// Disconnect grace before a local job's seat is dropped from the
  /// aggregate (the root runs its own, longer grace on top).
  std::chrono::milliseconds reclaim_timeout{2'000};
  /// Readiness backend for the event loop (poll or epoll).
  EventBackend event_backend = default_event_backend();

  /// Server-side transport decorator applied to every accepted or
  /// adopted local connection (fault injection in tests).
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
      transport_wrapper;

  /// Observability seam: "net.aggregator.*" counters, the per-level
  /// round-latency histogram, and fan-out gauges. Inert by default.
  obs::Observability obs{};
};

struct AggregatorStats {
  std::size_t sessions_accepted = 0;
  std::size_t sessions_closed = 0;
  std::size_t sessions_timed_out = 0;
  std::size_t samples_received = 0;
  std::size_t samples_stale = 0;      ///< Answered from the stored policy.
  std::size_t protocol_errors = 0;
  std::size_t jobs_evicted = 0;       ///< Local grace expiries.
  std::size_t rounds_forwarded = 0;   ///< Aggregate frames sent upward.
  std::size_t aggregate_resends = 0;  ///< Re-forwards (reconnect/stale).
  std::size_t policies_received = 0;  ///< Rack-policy frames from parent.
  std::size_t policies_fanned_out = 0;  ///< Per-job caps relayed down.
  std::size_t policies_resent = 0;    ///< Stored caps re-served locally.
  std::size_t budget_relays = 0;      ///< BudgetMessages relayed down.
  std::size_t parent_connects = 0;    ///< Successful upstream (re)connects.
  std::size_t parent_disconnects = 0;
  std::size_t jobs = 0;               ///< Local jobs currently seated.
  /// The rack budget granted by the parent's last rack-policy frame.
  double rack_budget_watts = 0.0;
  std::uint64_t budget_epoch = 0;     ///< Last relayed budget epoch.
};

/// Per-rack aggregation tier of the daemon tree: terminates its rack's
/// client sessions, batches their samples into one rack-aggregate frame
/// per round toward the parent (root) daemon, and fans the parent's
/// batched rack-policy reply back out as per-job caps.
///
/// The aggregator holds no power policy of its own — every watt decision
/// is the root's. What it owns is fan-in/fan-out mechanics:
///
///   1. A local client's first SampleMessage registers its job, exactly
///      as with a flat PowerDaemon (one live connection per job name,
///      reconnect-into-grace semantics).
///   2. When every seated job holds a fresh sample (and min_jobs is
///      met), the samples are serialized into one RackSampleMessage and
///      forwarded upstream. One aggregate frame is in flight at a time.
///   3. The parent's RackPolicyMessage is split back into per-job
///      PolicyMessages, each stored (for lost-reply resends) and relayed
///      to its client in one coalesced write per session.
///   4. BudgetMessages from the parent are relayed verbatim to every
///      registered client, and replayed to late registrants, so budget
///      epochs propagate through the tree unchanged.
///   5. A parent disconnect triggers reconnect-with-resend: the last
///      un-answered aggregate frame is sent again on the new link (the
///      root's stale-round handling answers duplicates idempotently).
///
/// run() serves the event loop on the calling thread; stop(), adopt()
/// and stats() are safe to call from other threads.
class AggregatorDaemon {
 public:
  explicit AggregatorDaemon(const AggregatorOptions& options);
  ~AggregatorDaemon();

  AggregatorDaemon(const AggregatorDaemon&) = delete;
  AggregatorDaemon& operator=(const AggregatorDaemon&) = delete;

  void listen_unix(const std::string& path);
  void listen_tcp(std::uint16_t port);
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return sessions_.tcp_port();
  }

  /// Adopts a pre-connected local client socket/transport. Thread-safe.
  void adopt(Socket socket);
  void adopt(std::unique_ptr<Transport> transport);

  /// Serves until stop(). Blocks the calling thread.
  void run();
  /// Thread-safe: makes run() return after the current cycle.
  void stop();

  [[nodiscard]] AggregatorStats stats() const;
  [[nodiscard]] const AggregatorOptions& options() const noexcept {
    return options_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// A local job's seat. Like the daemon's JobRecord it outlives its
  /// connection (grace window), but stores the *parent's* last policy
  /// rather than computing one.
  struct LocalJob {
    core::SampleLatch latch;
    core::PolicyMessage last_policy;
    bool have_policy = false;
    int session_fd = -1;  ///< -1: disconnected (grace running).
    Clock::time_point disconnected_at{};
  };

  void on_session_opened();
  void handle_client_frame(int fd, NetSession& session,
                           const std::string& payload);
  void close_session(int fd, NetSession& session, CloseCause cause);
  void evict_job(const std::string& name);
  /// Forwards one aggregate frame when every seated job is fresh and no
  /// frame is awaiting its reply.
  void try_forward();
  /// (Re)establishes the upstream link; re-sends the outstanding
  /// aggregate if one is awaiting a reply.
  void ensure_parent(bool resend_outstanding);
  /// The upstream session closed: forget it; the next tick reconnects.
  void drop_parent(CloseCause cause);
  /// Queues a frame on the upstream session; a no-op while it is down.
  void send_to_parent(const std::string& frame);
  void handle_parent_frame(const std::string& payload);
  void handle_rack_policy(core::RackPolicyMessage policy);
  void relay_budget(const core::BudgetMessage& budget);
  void queue_to_client(int fd, NetSession& session,
                       const core::PolicyMessage& message);
  void on_tick();

  AggregatorOptions options_;
  EventLoop loop_;
  SessionTable sessions_;
  /// Name-keyed: the aggregate frame's job order is the deterministic
  /// name order, matching the root's allocation order.
  std::map<std::string, LocalJob> jobs_;

  /// The upstream link's fd (-1 while down). The parent is an upstream
  /// session in sessions_: it shares the read, dispatch and write path,
  /// but its frames follow the client protocol (policies inbound), the
  /// idle sweep skips it, and its close is a reconnect trigger.
  int parent_fd_ = -1;
  bool launch_barrier_met_ = false;
  /// The last aggregate frame forwarded and whether its reply is still
  /// outstanding. Kept encoded so a reconnect can resend byte-identical.
  std::string last_aggregate_frame_;
  std::uint64_t last_forwarded_round_ = 0;
  bool in_flight_ = false;
  Clock::time_point forward_started_at_{};

  /// The budget state relayed from the parent, replayed to registrants.
  core::BudgetMessage last_budget_;
  bool have_budget_ = false;

  obs::Histogram* round_latency_ = nullptr;

  mutable std::mutex shared_mutex_;  ///< Guards stats_.
  AggregatorStats stats_;
};

}  // namespace ps::net
