#include "net/aggregator.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/error.hpp"

namespace ps::net {

AggregatorDaemon::AggregatorDaemon(const AggregatorOptions& options)
    : options_(options),
      loop_(options.event_backend),
      sessions_(loop_,
                {.on_open = [this](int) { on_session_opened(); },
                 .on_frame =
                     [this](int fd, NetSession& session,
                            const std::string& payload) {
                       if (session.upstream) {
                         handle_parent_frame(payload);
                       } else {
                         handle_client_frame(fd, session, payload);
                       }
                     },
                 .on_close =
                     std::bind_front(&AggregatorDaemon::close_session, this),
                 .on_drained = [this] { try_forward(); }},
                options.transport_wrapper) {
  PS_REQUIRE(!options.rack.empty() &&
                 options.rack.find_first_of(" \n") == std::string::npos,
             "rack name must be one non-empty token");
  PS_REQUIRE(options.parent_connector != nullptr,
             "aggregator needs a parent connector");
  PS_REQUIRE(options.min_jobs > 0, "launch barrier needs at least one job");
  PS_REQUIRE(options.tick_interval.count() > 0,
             "tick interval must be positive");
  PS_REQUIRE(options.reclaim_timeout.count() >= 0,
             "reclaim timeout must be non-negative");
  if (options_.obs.metrics != nullptr) {
    round_latency_ = &options_.obs.metrics->histogram(
        "net.aggregator.round_seconds", kRoundLatencyBounds);
  }
  loop_.set_tick(options_.tick_interval, [this] { on_tick(); });
}

AggregatorDaemon::~AggregatorDaemon() = default;

void AggregatorDaemon::listen_unix(const std::string& path) {
  sessions_.listen_unix(path);
}

void AggregatorDaemon::listen_tcp(std::uint16_t port) {
  sessions_.listen_tcp(port);
}

void AggregatorDaemon::adopt(Socket socket) {
  PS_REQUIRE(socket.valid(), "cannot adopt an invalid socket");
  sessions_.adopt(make_transport(std::move(socket)));
}

void AggregatorDaemon::adopt(std::unique_ptr<Transport> transport) {
  sessions_.adopt(std::move(transport));
}

void AggregatorDaemon::run() {
  sessions_.admit_adopted();
  ensure_parent(/*resend_outstanding=*/false);
  while (loop_.run_once(std::chrono::milliseconds(-1))) {
    sessions_.admit_adopted();
  }
}

void AggregatorDaemon::stop() {
  loop_.stop();
}

AggregatorStats AggregatorDaemon::stats() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return stats_;
}

void AggregatorDaemon::on_session_opened() {
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_accepted;
  }
  options_.obs.count("net.aggregator.sessions_accepted");
}

void AggregatorDaemon::close_session(int fd, NetSession& session,
                                     CloseCause cause) {
  if (session.upstream) {
    drop_parent(cause);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_closed;
    if (cause == CloseCause::kProtocolError) {
      ++stats_.protocol_errors;
    }
    if (cause == CloseCause::kIdle) {
      ++stats_.sessions_timed_out;
    }
  }
  options_.obs.count("net.aggregator.sessions_closed");
  if (session.registered) {
    const auto it = jobs_.find(session.job_name);
    // fd guard: a late close on a replaced connection must not detach
    // the job's live session.
    if (it != jobs_.end() && it->second.session_fd == fd) {
      it->second.session_fd = -1;
      it->second.disconnected_at = Clock::now();
    }
  }
}

void AggregatorDaemon::evict_job(const std::string& name) {
  const auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return;
  }
  const bool closed = sessions_.remove(it->second.session_fd);
  jobs_.erase(it);
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.sessions_closed += closed ? 1 : 0;
    ++stats_.jobs_evicted;
    stats_.jobs = jobs_.size();
  }
  options_.obs.count("net.aggregator.jobs_evicted");
  // The watts the job held are NOT reclaimed here: the aggregator owns
  // no budget. The root's own grace/eviction machinery reclaims the seat
  // when the job stops appearing in this rack's aggregates.
}

void AggregatorDaemon::handle_client_frame(int fd, NetSession& session,
                                           const std::string& payload) {
  core::SampleMessage sample = core::parse_sample_message(payload);
  if (!session.registered) {
    auto it = jobs_.find(sample.job_name);
    if (it != jobs_.end()) {
      PS_REQUIRE(it->second.session_fd < 0,
                 "job '" + sample.job_name + "' is already registered");
      it->second.session_fd = fd;
    } else {
      LocalJob job;
      job.session_fd = fd;
      it = jobs_.emplace(sample.job_name, std::move(job)).first;
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      stats_.jobs = jobs_.size();
    }
    session.job_name = sample.job_name;
    session.registered = true;
    if (have_budget_) {
      // Epoch propagation: a registrant (or reconnect) must hear the
      // tree's current budget epoch before any caps, exactly as the
      // root resyncs its direct clients.
      sessions_.queue_frame(
          fd, session,
          encode_frame(serialize(last_budget_, core::WireFidelity::kExact)));
      if (!sessions_.contains(fd)) {
        throw InvalidArgument("session closed during budget resync");
      }
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.budget_relays;
    }
  } else {
    PS_REQUIRE(sample.job_name == session.job_name,
               "session is bound to job '" + session.job_name + "'");
  }

  LocalJob& job = jobs_.at(session.job_name);
  const std::uint64_t sequence = sample.sequence;
  if (job.have_policy && job.last_policy.sequence >= sequence) {
    // Already answered by the parent: the reply was lost somewhere below
    // us. Re-serve the stored caps without bothering the root.
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.samples_received;
      ++stats_.samples_stale;
      ++stats_.policies_resent;
    }
    options_.obs.count("net.aggregator.policies_resent");
    queue_to_client(fd, session, job.last_policy);
    return;
  }
  const bool accepted = job.latch.offer(std::move(sample));
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.samples_received;
    if (!accepted) {
      ++stats_.samples_stale;
    }
  }
  if (!accepted && in_flight_ && !last_aggregate_frame_.empty()) {
    // The client is retrying a round we forwarded but cannot answer yet:
    // our aggregate (or its reply) may have been lost above us. Nudge
    // the parent by re-sending the outstanding frame — the root answers
    // duplicates idempotently from its stored caps.
    send_to_parent(last_aggregate_frame_);
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.aggregate_resends;
    }
    options_.obs.count("net.aggregator.aggregate_resends");
  }
}

void AggregatorDaemon::try_forward() {
  if (parent_fd_ < 0) {
    ensure_parent(/*resend_outstanding=*/true);
    if (parent_fd_ < 0) {
      return;  // unreachable; retried on the next tick
    }
  }
  if (in_flight_ || jobs_.empty()) {
    return;
  }
  if (!launch_barrier_met_) {
    if (jobs_.size() < options_.min_jobs) {
      return;
    }
    launch_barrier_met_ = true;
  }
  for (const auto& [name, job] : jobs_) {
    if (!job.latch.has_fresh()) {
      return;  // wait until every seated job has reported this round
    }
  }

  core::RackSampleMessage aggregate;
  aggregate.rack = options_.rack;
  // jobs_ is name-keyed, so the aggregate's job order is the same
  // deterministic order the root allocates in.
  for (auto& [name, job] : jobs_) {
    aggregate.samples.push_back(job.latch.consume());
    aggregate.round =
        std::max(aggregate.round, aggregate.samples.back().sequence);
  }
  last_aggregate_frame_ =
      encode_frame(serialize(aggregate, core::WireFidelity::kExact));
  last_forwarded_round_ = aggregate.round;
  in_flight_ = true;
  forward_started_at_ = Clock::now();
  send_to_parent(last_aggregate_frame_);
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.rounds_forwarded;
  }
  options_.obs.count("net.aggregator.rounds_forwarded");
  options_.obs.set_gauge("net.aggregator.jobs",
                         static_cast<double>(aggregate.samples.size()));
}

void AggregatorDaemon::ensure_parent(bool resend_outstanding) {
  if (parent_fd_ >= 0) {
    return;
  }
  std::unique_ptr<Transport> link = options_.parent_connector();
  if (link == nullptr || !link->valid()) {
    return;  // parent unreachable; retried on the next tick
  }
  parent_fd_ = sessions_.add(std::move(link));
  sessions_.find(parent_fd_)->upstream = true;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.parent_connects;
  }
  options_.obs.count("net.aggregator.parent_connects");
  if (resend_outstanding && in_flight_ && !last_aggregate_frame_.empty()) {
    // Reconnect-with-resend: the outstanding round must not be lost to
    // the old link. The root's stale-round handling makes the duplicate
    // harmless if the original did arrive.
    send_to_parent(last_aggregate_frame_);
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.aggregate_resends;
    }
    options_.obs.count("net.aggregator.aggregate_resends");
  }
}

void AggregatorDaemon::drop_parent(CloseCause cause) {
  parent_fd_ = -1;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.parent_disconnects;
    // A corrupt upstream stream is indistinguishable from a torn link:
    // both drop it and reconnect rather than guess at the offset.
    if (cause == CloseCause::kProtocolError) {
      ++stats_.protocol_errors;
    }
  }
  options_.obs.count("net.aggregator.parent_disconnects");
  // in_flight_ stays set: the reply may never come over the dead link,
  // so the reconnect path re-sends the outstanding aggregate.
}

void AggregatorDaemon::send_to_parent(const std::string& frame) {
  if (NetSession* parent = sessions_.find(parent_fd_)) {
    sessions_.queue_frame(parent_fd_, *parent, frame);
  }
}

void AggregatorDaemon::handle_parent_frame(const std::string& payload) {
  switch (core::wire_message_kind(payload)) {
    case core::WireMessageKind::kRackPolicy:
      handle_rack_policy(core::parse_rack_policy_message(payload));
      return;
    case core::WireMessageKind::kBudget:
      relay_budget(core::parse_budget_message(payload));
      return;
    default:
      throw InvalidArgument("unexpected message kind from parent daemon");
  }
}

void AggregatorDaemon::handle_rack_policy(core::RackPolicyMessage policy) {
  PS_REQUIRE(policy.rack == options_.rack,
             "rack-policy frame addressed to rack '" + policy.rack + "'");
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.policies_received;
    stats_.rack_budget_watts = policy.rack_budget_watts;
  }
  options_.obs.count("net.aggregator.policies_received");
  options_.obs.set_gauge("net.aggregator.rack_budget_watts",
                         policy.rack_budget_watts);
  if (in_flight_ && policy.round >= last_forwarded_round_) {
    in_flight_ = false;
    if (round_latency_ != nullptr) {
      round_latency_->observe(std::chrono::duration<double>(
                                  Clock::now() - forward_started_at_)
                                  .count());
    }
  }
  std::size_t fanned = 0;
  {
    // One coalesced write per client session for the whole fan-out.
    const SessionTable::Batch batch(sessions_);
    for (core::PolicyMessage& message : policy.policies) {
      const auto it = jobs_.find(message.job_name);
      if (it == jobs_.end()) {
        continue;  // evicted locally while the round was in flight
      }
      LocalJob& job = it->second;
      job.last_policy = message;
      job.have_policy = true;
      if (job.session_fd < 0) {
        continue;  // in grace: stored, re-served on reconnect
      }
      NetSession* session = sessions_.find(job.session_fd);
      if (session == nullptr) {
        continue;
      }
      queue_to_client(job.session_fd, *session, message);
      ++fanned;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.policies_fanned_out += fanned;
  }
  options_.obs.count("net.aggregator.policies_fanned_out", fanned);
  options_.obs.set_gauge("net.aggregator.fanout",
                         static_cast<double>(fanned));
  try_forward();
}

void AggregatorDaemon::relay_budget(const core::BudgetMessage& budget) {
  last_budget_ = budget;
  have_budget_ = true;
  const std::size_t relayed = sessions_.broadcast(
      encode_frame(serialize(budget, core::WireFidelity::kExact)));
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.budget_relays += relayed;
    stats_.budget_epoch = budget.epoch;
  }
  options_.obs.count("net.aggregator.budget_relays", relayed);
}

void AggregatorDaemon::queue_to_client(int fd, NetSession& session,
                                       const core::PolicyMessage& message) {
  sessions_.queue_frame(
      fd, session,
      encode_frame(serialize(message, core::WireFidelity::kExact)));
}

void AggregatorDaemon::on_tick() {
  sessions_.admit_adopted();
  sessions_.sweep_idle(options_.idle_timeout);
  const auto now = Clock::now();

  std::vector<std::string> evictions;
  for (const auto& [name, job] : jobs_) {
    if (job.session_fd < 0 &&
        now - job.disconnected_at > options_.reclaim_timeout) {
      evictions.push_back(name);  // grace expired: drop the seat
    }
  }
  for (const std::string& name : evictions) {
    evict_job(name);
  }

  ensure_parent(/*resend_outstanding=*/true);
  try_forward();
}

}  // namespace ps::net
