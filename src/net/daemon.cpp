#include "net/daemon.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <unordered_set>
#include <utility>

#include "core/control_round.hpp"
#include "core/invariants.hpp"
#include "net/snapshot.hpp"
#include "obs/replay.hpp"
#include "rm/allocation.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::net {

namespace {

/// A job's programmable envelope as its runtime reports it; the CPU/node
/// TDP is the site's.
core::JobLimits limits_from_sample(const core::SampleMessage& sample,
                                   double node_tdp_watts) {
  return {.hosts = sample.host_observed_watts.size(),
          .floor_watts = sample.min_settable_cap_watts,
          .tdp_watts = node_tdp_watts,
          .gpu_domain = sample.has_gpu_domain(),
          .gpu_floor_watts = sample.gpu_min_cap_watts,
          .gpu_tdp_watts = sample.gpu_tdp_watts,
          .sla_class = sample.sla_class};
}

/// Adds every CPU cap, then every GPU cap, to `total` one at a time, so
/// every running watt total here sums in one order.
void add_caps(double& total, const std::vector<double>& cpu_caps,
              const std::vector<double>& gpu_caps) {
  for (const double cap : cpu_caps) {
    total += cap;
  }
  for (const double cap : gpu_caps) {
    total += cap;
  }
}

/// Moves one job's caps into a rack reply: the round is the newest
/// sequence carried, the rack budget the sum of the caps.
void add_to_rack_reply(core::RackPolicyMessage& reply,
                       core::PolicyMessage&& policy) {
  reply.round = std::max(reply.round, policy.sequence);
  add_caps(reply.rack_budget_watts, policy.host_caps_watts,
           policy.host_gpu_caps_watts);
  reply.policies.push_back(std::move(policy));
}

}  // namespace

PowerDaemon::PowerDaemon(const DaemonOptions& options)
    : options_(options),
      policy_(core::make_policy(options.policy)),
      loop_(options.event_backend),
      sessions_(loop_,
                {.on_open = [this](int) { on_session_opened(); },
                 .on_frame = std::bind_front(&PowerDaemon::handle_frame, this),
                 .on_close = std::bind_front(&PowerDaemon::close_session, this),
                 .on_drained = [this] { try_allocate(); }},
                options.transport_wrapper),
      budget_(options.system_budget_watts),
      schedule_(options_.budget_revisions) {
  PS_REQUIRE(options.min_jobs > 0, "launch barrier needs at least one job");
  PS_REQUIRE(options.tick_interval.count() > 0,
             "tick interval must be positive");
  PS_REQUIRE(options.reclaim_timeout.count() >= 0,
             "reclaim timeout must be non-negative");
  PS_REQUIRE(options.heartbeat_timeout.count() > 0,
             "heartbeat timeout must be positive");
  PS_REQUIRE(options.quarantine_errors > 0,
             "quarantine threshold must be positive");
  fence_epoch_ = options.fence_epoch;
  if (options_.initial_state) {
    // A promoted standby boots over the replicated state it applied —
    // the in-memory analogue of a disk-snapshot restore, with the same
    // authority rules.
    restore_state(*options_.initial_state);
  } else if (!options_.snapshot_path.empty()) {
    // No snapshot (or a corrupt one) is a cold start.
    if (const auto snapshot = load_snapshot(options_.snapshot_path)) {
      restore_state(*snapshot);
    }
  }
  stats_.budget_watts = budget_.budget_watts();
  stats_.budget_epoch = budget_.budget_epoch();
  stats_.fence_epoch = fence_epoch_;
  if (options_.obs.metrics != nullptr) {
    round_latency_ = &options_.obs.metrics->histogram(
        "net.daemon.round_seconds", kRoundLatencyBounds);
  }
  loop_.set_tick(options_.tick_interval, [this] { on_tick(); });
}

PowerDaemon::~PowerDaemon() = default;

void PowerDaemon::restore_state(const DaemonSnapshot& snapshot) {
  if (snapshot.budget_epoch > 0) {
    // The budget was renegotiated before the crash. The snapshot is the
    // authority: restoring the configured budget would resurrect a
    // pre-brownout envelope the clients already heard revoked.
    if (budget_.set_budget(snapshot.system_budget_watts,
                           snapshot.budget_epoch)) {
      budget_emergency_ = snapshot.budget_emergency;
    }
    // Scheduled revisions the previous incarnation already adopted must
    // not replay (their epochs are not newer).
    schedule_.skip_adopted(budget_.budget_epoch());
  } else if (snapshot.system_budget_watts != options_.system_budget_watts) {
    // The persisted caps were computed under a different facility budget;
    // restoring them could violate the new one. Cold start instead.
    return;
  }
  // A restart of a once-promoted daemon must not regress its fence: the
  // highest fence its clients ratcheted is the persisted one.
  fence_epoch_ = std::max(fence_epoch_, snapshot.fence_epoch);
  launch_barrier_met_ = snapshot.launch_barrier_met;
  allocation_epoch_base_ = snapshot.allocations;
  const auto now = Clock::now();
  for (const SnapshotJob& job : snapshot.jobs) {
    JobRecord record;
    record.last_caps_watts = job.caps_watts;
    record.last_gpu_caps_watts = job.gpu_caps_watts;
    record.last_sequence = job.sequence;
    record.have_policy = true;
    record.session_fd = -1;
    record.disconnected_at = now;  // the grace clock starts at boot
    jobs_.emplace(job.name, std::move(record));
    ++stats_.jobs_restored;
  }
  options_.obs.count("net.daemon.jobs_restored", snapshot.jobs.size());
  options_.obs.emit(
      allocation_epoch_base_, obs::cat::kDaemon, "restore",
      {{"jobs", static_cast<std::uint64_t>(snapshot.jobs.size())},
       {"budget_watts", budget_.budget_watts()},
       {"budget_epoch", budget_.budget_epoch()}});
}

std::uint64_t PowerDaemon::completed_rounds() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return allocation_epoch_base_ + stats_.allocations;
}

void PowerDaemon::listen_unix(const std::string& path) {
  sessions_.listen_unix(path);
}

void PowerDaemon::listen_tcp(std::uint16_t port) {
  sessions_.listen_tcp(port);
}

void PowerDaemon::adopt(Socket socket) {
  PS_REQUIRE(socket.valid(), "cannot adopt an invalid socket");
  sessions_.adopt(make_transport(std::move(socket)));
}

void PowerDaemon::adopt(std::unique_ptr<Transport> transport) {
  sessions_.adopt(std::move(transport));
}

void PowerDaemon::run() {
  sessions_.admit_adopted();
  apply_pending_revisions();
  while (loop_.run_once(std::chrono::milliseconds(-1))) {
    sessions_.admit_adopted();
    apply_pending_revisions();
  }
}

void PowerDaemon::stop() {
  loop_.stop();
}

void PowerDaemon::revise_budget(const core::BudgetRevision& revision) {
  PS_REQUIRE(revision.budget_watts > 0.0,
             "budget revision must be positive");
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    pending_revisions_.push_back(revision);
  }
  loop_.wake();
}

void PowerDaemon::apply_pending_revisions() {
  std::vector<core::BudgetRevision> revisions;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    revisions.swap(pending_revisions_);
  }
  for (const core::BudgetRevision& revision : revisions) {
    // A push has no schedule position: it lands on the round clock.
    on_revision(revision,
                budget_.set_budget(revision.budget_watts, revision.epoch),
                completed_rounds());
  }
}

void PowerDaemon::on_revision(const core::BudgetRevision& revision,
                              bool adopted, std::uint64_t tick) {
  options_.obs.count(adopted ? "net.daemon.revisions_applied"
                             : "net.daemon.revisions_stale");
  options_.obs.emit(tick, obs::cat::kDaemon, "revision",
                    {{"revision_epoch", revision.epoch},
                     {"budget_watts", revision.budget_watts},
                     {"applied", adopted}});
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    if (!adopted) {
      // A replayed or superseded revision: rejecting it (rather than
      // re-applying) is what makes delivery idempotent.
      ++stats_.budget_revisions_stale;
      return;
    }
    ++stats_.budget_revisions_applied;
    stats_.budget_watts = budget_.budget_watts();
    stats_.budget_epoch = budget_.budget_epoch();
  }
  budget_emergency_ = revision.emergency;
  clamp_stored_caps();
  push_budget_to_sessions();
  // The revised budget must survive a restart: persist before any
  // further reply can leave under the new epoch.
  maybe_write_snapshot();
}

std::string PowerDaemon::budget_frame() const {
  const core::BudgetMessage message{.epoch = budget_.budget_epoch(),
                                    .budget_watts = budget_.budget_watts(),
                                    .emergency = budget_emergency_};
  return encode_frame(serialize(message, core::WireFidelity::kExact));
}

void PowerDaemon::push_budget_to_sessions() {
  const std::size_t pushed = sessions_.broadcast(budget_frame());
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  stats_.budget_pushes += pushed;
}

void PowerDaemon::clamp_stored_caps() {
  // A round over the stored caps alone: if together they no longer fit
  // the revised budget, it scales them onto it (floor-preserving, lowest
  // class first) so a resend or a snapshot restore cannot reprogram a
  // superseded allocation. A job not heard from since a restore has an
  // unknown envelope.
  std::vector<core::JobLimits> limits;
  rm::PowerAllocation stored;
  for (const auto& [name, record] : jobs_) {
    if (record.have_policy) {
      const auto& latest = record.latch.latest();
      core::JobLimits job =
          latest ? limits_from_sample(*latest, options_.node_tdp_watts)
                 : core::JobLimits{
                       .tdp_watts = options_.node_tdp_watts,
                       .gpu_tdp_watts = std::numeric_limits<double>::infinity()};
      job.hosts = record.last_caps_watts.size();
      job.gpu_domain = !record.last_gpu_caps_watts.empty();
      limits.push_back(job);
      stored.job_host_caps.push_back(record.last_caps_watts);
      stored.job_host_gpu_caps.push_back(record.last_gpu_caps_watts);
    }
  }
  if (limits.empty()) {
    return;
  }
  core::RoundOutcome round =
      core::ControlRound{.jobs = limits,
                         .budget_watts = budget_.budget_watts(),
                         .caps_in_force = &stored,
                         .budget_binds = true}
          .run();
  if (round.verdict != core::RoundVerdict::kClamp) {
    return;  // the stored caps still fit; nothing to clamp
  }
  std::size_t j = 0;
  for (auto& [name, record] : jobs_) {
    if (record.have_policy) {
      record.last_caps_watts = std::move(round.caps.job_host_caps[j]);
      record.last_gpu_caps_watts = std::move(round.caps.job_host_gpu_caps[j]);
      ++j;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.adoption_clamps;
  }
  options_.obs.count("net.daemon.adoption_clamps");
}

DaemonStats PowerDaemon::stats() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return stats_;
}

void PowerDaemon::on_session_opened() {
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_accepted;
  }
  options_.obs.count("net.daemon.sessions_accepted");
  options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "session_accepted");
}

void PowerDaemon::close_session(int fd, NetSession& session,
                                CloseCause cause) {
  // The table keeps the transport open until this returns, so a stats()
  // reader who saw the disconnect sees every consequence of it (protocol
  // error attribution, quarantine, eviction) already counted.
  const bool protocol_error = cause == CloseCause::kProtocolError;
  const std::string& job_name = session.job_name;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_closed;
    if (protocol_error) {
      ++stats_.protocol_errors;
    }
    if (cause == CloseCause::kIdle) {
      ++stats_.sessions_timed_out;
    }
    if (session.is_rack && stats_.rack_sessions > 0) {
      --stats_.rack_sessions;
      stats_.rack_jobs -= session.rack_jobs.size();
    }
  }
  options_.obs.count("net.daemon.sessions_closed");
  options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "session_closed",
                    {{"job", job_name}, {"protocol_error", protocol_error}});

  bool quarantined = false;
  if (session.registered && !session.is_rack) {
    const auto jit = jobs_.find(job_name);
    // The fd guard keeps a stale close (a late error on a connection the
    // job already replaced) from detaching the job's live session.
    if (jit != jobs_.end() && jit->second.session_fd == fd) {
      JobRecord& record = jit->second;
      record.session_fd = -1;
      record.disconnected_at = Clock::now();
      if (protocol_error) {
        ++record.protocol_errors;
        if (record.protocol_errors >= options_.quarantine_errors) {
          record_quarantine(job_name,
                            Clock::now() + options_.quarantine_period);
          {
            const std::lock_guard<std::mutex> lock(shared_mutex_);
            ++stats_.quarantines;
          }
          options_.obs.count("net.daemon.quarantines");
          options_.obs.emit(completed_rounds(), obs::cat::kNetIo,
                            "quarantine", {{"job", job_name}});
          evict_jobs({job_name});
          quarantined = true;
        }
      }
    }
  } else if (session.registered) {
    // Every job the rack carried enters grace together; each is still
    // reclaimed exactly once (by the ordinary grace-expiry eviction) if
    // the aggregator does not reconnect in time. Rack protocol errors
    // are not attributed to individual jobs: an aggregator is trusted
    // infrastructure, and quarantining a whole rack's jobs for one bad
    // frame would amplify a transient fault into a mass eviction.
    const auto now = Clock::now();
    for (const std::string& name : session.rack_jobs) {
      const auto jit = jobs_.find(name);
      if (jit != jobs_.end() && jit->second.session_fd == fd) {
        jit->second.session_fd = -1;
        jit->second.disconnected_at = now;
      }
    }
  }
  // Membership may have changed (a quarantined job frees its watts); a
  // disconnect within grace does not, but a pending round may now be
  // waiting only on jobs that can still answer.
  if (quarantined) {
    try_allocate();
  }
}

void PowerDaemon::record_quarantine(const std::string& name,
                                    Clock::time_point until) {
  quarantine_[name] = until;
  if (options_.max_quarantine_entries > 0) {
    while (quarantine_.size() > options_.max_quarantine_entries) {
      // Bounded bookkeeping: shed the entry closest to expiry — the one
      // whose bar was about to lift anyway — so an unbounded churn of
      // misbehaving client identities cannot grow this map forever.
      auto victim = quarantine_.begin();
      for (auto it = std::next(quarantine_.begin()); it != quarantine_.end();
           ++it) {
        if (it->second < victim->second) {
          victim = it;
        }
      }
      quarantine_.erase(victim);
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.quarantine_entries_dropped;
      }
      options_.obs.count("net.daemon.quarantine_entries_dropped");
    }
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.quarantine_entries = quarantine_.size();
  }
  options_.obs.set_gauge("net.daemon.quarantine_entries",
                         static_cast<double>(quarantine_.size()));
}

void PowerDaemon::prune_quarantine(Clock::time_point now) {
  const std::size_t before = quarantine_.size();
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    if (now >= it->second) {
      it = quarantine_.erase(it);  // served its time; forget the name
    } else {
      ++it;
    }
  }
  if (quarantine_.size() != before) {
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      stats_.quarantine_entries = quarantine_.size();
    }
    options_.obs.set_gauge("net.daemon.quarantine_entries",
                           static_cast<double>(quarantine_.size()));
  }
}

void PowerDaemon::evict_jobs(const std::vector<std::string>& names) {
  if (names.empty()) {
    return;
  }
  const auto stored = [this] {
    double total = 0.0;
    for (const auto& [job_name, job_record] : jobs_) {
      add_caps(total, job_record.last_caps_watts,
               job_record.last_gpu_caps_watts);
    }
    return total;
  };
  const double stored_before = stored();
  double reclaimed_total = 0.0;
  // Jobs to unbind from each live rack session, removed in one pass per
  // rack after the batch.
  std::map<int, std::unordered_set<std::string>> rack_unbinds;
  bool evicted_any = false;
  for (const std::string& name : names) {
    const auto it = jobs_.find(name);
    if (it == jobs_.end()) {
      continue;  // idempotent: watts can only be returned once
    }
    const JobRecord record = std::move(it->second);
    jobs_.erase(it);

    if (record.session_fd >= 0) {
      NetSession* session = sessions_.find(record.session_fd);
      if (session != nullptr && session->is_rack) {
        // A rack session multiplexes many jobs: evicting one (heartbeat
        // stall, quarantine) must not sever the aggregator's link and
        // take the whole rack down with it. Unbind the job and keep
        // serving the rest of the rack.
        rack_unbinds[record.session_fd].insert(name);
      } else if (sessions_.remove(record.session_fd)) {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.sessions_closed;
      }
    }

    double reclaimed = 0.0;
    add_caps(reclaimed, record.last_caps_watts, record.last_gpu_caps_watts);
    reclaimed_total += reclaimed;
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.jobs_evicted;
      if (record.have_policy) {
        stats_.watts_reclaimed += reclaimed;
      }
      if (record.session_fd < 0 &&
          record.disconnected_at != Clock::time_point{}) {
        stats_.reclaim_seconds_total +=
            std::chrono::duration<double>(Clock::now() -
                                          record.disconnected_at)
                .count();
      }
    }
    options_.obs.count("net.daemon.jobs_evicted");
    options_.obs.emit(
        completed_rounds(), obs::cat::kNetIo, "evict",
        {{"job", name},
         {"watts_reclaimed", record.have_policy ? reclaimed : 0.0}});
    evicted_any = true;
  }
  if (evicted_any) {
    // One snapshot per batch: no reply goes out between the batch's
    // evictions, so the write-ahead guarantee holds without one
    // serialize-and-fsync per evicted job.
    maybe_write_snapshot();
  }
  for (const auto& [fd, evicted] : rack_unbinds) {
    NetSession* session = sessions_.find(fd);
    if (session == nullptr) {
      continue;
    }
    const std::size_t unbound =
        std::erase_if(session->rack_jobs, [&evicted](const std::string& job) {
          return evicted.contains(job);
        });
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.rack_jobs -= unbound;
  }
  // Exactly-once reclamation in watt terms: the pool before the batch
  // equals what its jobs freed plus what everyone else still holds.
  core::invariants::check_watts_conserved(stored_before, reclaimed_total,
                                          stored(), 1e-9, "daemon.evict");
}

void PowerDaemon::handle_frame(int fd, NetSession& session,
                               const std::string& payload) {
  const core::WireMessageKind kind = core::wire_message_kind(payload);
  if (kind == core::WireMessageKind::kRackSample) {
    PS_REQUIRE(options_.root_mode,
               "rack frames require a root-mode daemon");
    handle_rack_frame(fd, session, payload);
    return;
  }
  // Everything else must be a sample; parse_sample_message rejects the
  // rest (including rack frames on a flat daemon) as protocol errors.
  handle_sample_frame(fd, session, core::parse_sample_message(payload));
}

PowerDaemon::JobBinding PowerDaemon::bind_job_record(
    int fd, const std::string& job_name, JobTable::iterator hint) {
  const auto quarantined = quarantine_.find(job_name);
  if (quarantined != quarantine_.end()) {
    if (Clock::now() < quarantined->second) {
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.quarantine_rejections;
      }
      options_.obs.count("net.daemon.quarantine_rejections");
      throw InvalidArgument("job '" + job_name + "' is quarantined");
    }
    quarantine_.erase(quarantined);  // served its time
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      stats_.quarantine_entries = quarantine_.size();
    }
  }
  const auto it = hint != jobs_.end() && hint->first == job_name
                      ? hint
                      : jobs_.find(job_name);
  if (it == jobs_.end()) {
    JobRecord record;
    record.session_fd = fd;
    return {jobs_.emplace(job_name, std::move(record)).first, true};
  }
  JobRecord& record = it->second;
  // A rack session re-binds its own jobs every round (fd already bound);
  // only a *different* live session is a registration clash.
  PS_REQUIRE(record.session_fd < 0 || record.session_fd == fd,
             "job '" + job_name + "' is already registered");
  if (record.session_fd == fd) {
    return {it, false};
  }
  record.session_fd = fd;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_rehydrated;
  }
  options_.obs.count("net.daemon.sessions_rehydrated");
  options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "rehydrate",
                    {{"job", job_name}});
  return {it, true};
}

void PowerDaemon::send_budget_resync(int fd, NetSession& session) {
  if (budget_.budget_epoch() == 0) {
    return;
  }
  // Resync: a client registering (or reconnecting after an outage)
  // must hear the current budget epoch before any caps, or it would
  // reject them as stale / accept superseded ones.
  sessions_.queue_frame(fd, session, budget_frame());
  if (!sessions_.contains(fd)) {
    throw InvalidArgument("session closed during budget resync");
  }
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  ++stats_.budget_pushes;
}

bool PowerDaemon::offer_sample(JobRecord& record,
                               core::SampleMessage&& sample,
                               Clock::time_point now, SampleCounts& counts) {
  ++counts.received;
  if (record.have_policy && record.last_sequence >= sample.sequence) {
    // A sequence the daemon already answered: the reply was lost (to a
    // drop, a corrupted frame, or a daemon restart). Resending the
    // stored caps — instead of re-running the round — keeps a retried
    // sample from tearing a round in half when its peers have moved on.
    ++counts.stale;
    return true;
  }
  if (record.latch.offer(std::move(sample))) {
    // The heartbeat clock measures fresh-sample progress, not traffic: a
    // client looping on stale sequences must still stall-evict.
    record.last_sample_at = now;
  } else {
    ++counts.stale;
  }
  return false;
}

void PowerDaemon::commit_sample_counts(const SampleCounts& counts) {
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.samples_received += counts.received;
    stats_.samples_stale += counts.stale;
    stats_.rack_jobs += counts.rack_jobs;
  }
  if (counts.stale > 0) {
    options_.obs.count("net.daemon.samples_stale", counts.stale);
  }
}

void PowerDaemon::handle_sample_frame(int fd, NetSession& session,
                                      core::SampleMessage sample) {
  PS_REQUIRE(!session.is_rack,
             "rack session sent a flat sample message");
  if (!session.registered) {
    bind_job_record(fd, sample.job_name, jobs_.end());
    session.job_name = sample.job_name;
    session.registered = true;
    send_budget_resync(fd, session);
  } else {
    PS_REQUIRE(sample.job_name == session.job_name,
               "session is bound to job '" + session.job_name + "'");
  }
  JobRecord& record = jobs_.at(session.job_name);
  SampleCounts counts;
  const bool answered =
      offer_sample(record, std::move(sample), Clock::now(), counts);
  commit_sample_counts(counts);
  if (answered) {
    resend_last_policy(fd, session, record);
  }
}

void PowerDaemon::handle_rack_frame(int fd, NetSession& session,
                                    const std::string& payload) {
  core::RackSampleMessage rack = core::parse_rack_sample_message(payload);
  if (!session.registered) {
    session.registered = true;
    session.is_rack = true;
    session.rack_name = rack.rack;
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.rack_sessions;
    }
    options_.obs.count("net.daemon.rack_sessions_registered");
    options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "rack_register",
                      {{"rack", rack.rack}});
    send_budget_resync(fd, session);
  } else {
    PS_REQUIRE(session.is_rack, "flat session sent a rack frame");
    PS_REQUIRE(rack.rack == session.rack_name,
               "session is bound to rack '" + session.rack_name + "'");
  }

  const auto now = Clock::now();
  core::RackPolicyMessage resend;
  resend.rack = session.rack_name;
  SampleCounts counts;
  // A frame lists its jobs in name order, and a rack's jobs sit next to
  // each other in the table's name order, so the record after the one
  // bound last is nearly always the next sample's: the walk binds a
  // frame without searching the table. A miss (interleaved racks, a new
  // job) costs one name compare before the search.
  JobTable::iterator hint = jobs_.end();
  try {
    for (core::SampleMessage& sample : rack.samples) {
      const JobBinding binding = bind_job_record(fd, sample.job_name, hint);
      auto& [job_name, record] = *binding.slot;
      hint = std::next(binding.slot);
      if (binding.attached) {
        session.rack_jobs.push_back(job_name);
        ++counts.rack_jobs;
      }
      if (offer_sample(record, std::move(sample), now, counts)) {
        add_to_rack_reply(resend, stored_policy(job_name, record));
      }
    }
  } catch (...) {
    commit_sample_counts(counts);  // what the frame did before the fault
    throw;
  }
  // Committed before the resend is queued: a client holding the resend
  // must find every count of the frame that caused it in stats().
  commit_sample_counts(counts);
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.rack_frames_received;
    if (!resend.policies.empty()) {
      ++stats_.rack_policies_resent;
      stats_.policies_resent += resend.policies.size();
    }
  }
  options_.obs.count("net.daemon.rack_frames_received");

  if (!resend.policies.empty()) {
    // Already-answered rounds (post-crash reconnects, lost replies) get
    // one batched resend of the stored caps, mirroring the flat path's
    // per-job resend.
    options_.obs.count("net.daemon.rack_policies_resent");
    sessions_.queue_frame(
        fd, session,
        encode_frame(serialize(resend, core::WireFidelity::kExact)));
  }
}

core::PolicyMessage PowerDaemon::stored_policy(
    const std::string& name, const JobRecord& record) const {
  core::PolicyMessage message;
  message.job_name = name;
  message.sequence = record.last_sequence;
  message.host_caps_watts = record.last_caps_watts;
  message.host_gpu_caps_watts = record.last_gpu_caps_watts;
  // Tag with the *current* renegotiation epoch: the stored caps are kept
  // valid under it (clamp_stored_caps runs on every revision), and an
  // untagged resend would read as epoch 0 — rejected as stale by any
  // client that has already heard a newer budget.
  message.budget_epoch = budget_.budget_epoch();
  // The fence tag is deliberately this incarnation's own: a zombie
  // primary's resends carry its superseded fence, which is exactly what
  // lets a failed-over client refuse them.
  message.fence_epoch = fence_epoch_;
  return message;
}

void PowerDaemon::resend_last_policy(int fd, NetSession& session,
                                     JobRecord& record) {
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.policies_resent;
  }
  queue_message(fd, session, stored_policy(session.job_name, record));
}

void PowerDaemon::queue_message(int fd, NetSession& session,
                                const core::PolicyMessage& message) {
  sessions_.queue_frame(
      fd, session,
      encode_frame(serialize(message, core::WireFidelity::kExact)));
}

void PowerDaemon::try_allocate() {
  if (in_allocate_) {
    // A send from the round in flight closed a session and re-entered;
    // note it and let the outer call re-examine membership when done.
    allocate_again_ = true;
    return;
  }
  in_allocate_ = true;
  do {
    allocate_again_ = false;
    allocate_once();
  } while (allocate_again_);
  in_allocate_ = false;
}

void PowerDaemon::allocate_once() {
  if (jobs_.empty()) {
    return;
  }
  if (options_.fence_check && options_.fence_check()) {
    // Fenced: a promoted successor may exist, so computing new caps here
    // could double-grant the same watts. Stored-cap resends still answer
    // (tagged with this incarnation's now-stale fence, which failed-over
    // clients reject), but no new allocation leaves this daemon.
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.rounds_fenced;
    }
    options_.obs.count("net.daemon.rounds_fenced");
    return;
  }
  if (!launch_barrier_met_) {
    if (jobs_.size() < options_.min_jobs) {
      return;
    }
    launch_barrier_met_ = true;
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.launch_barriers;
    }
    options_.obs.emit(0, obs::cat::kDaemon, "barrier",
                      {{"jobs", static_cast<std::uint64_t>(jobs_.size())}});
  }
  for (const auto& [name, record] : jobs_) {
    if (!record.latch.has_fresh()) {
      return;  // wait until every job has reported this round
    }
  }
  // Round latency is measured from the barrier (last sample in) to the
  // last coalesced frame flushed: the daemon-side share of what a client
  // experiences as round-trip time at this level of the tree.
  const auto round_start = Clock::now();

  // One walk gathers each seat and its latched sample by pointer, in the
  // table's job-name order: the allocation must not depend on fd values
  // or connection timing. Everything below indexes these two arrays.
  // No record can be erased before the fan-out is queued, so the seats
  // stay valid: eviction follows only a protocol-error close or a tick,
  // the budget push inside adopt_due can only close a session as kPeer
  // (which never evicts), and the fan-out runs corked, so no session
  // closes until the batch flushes.
  const std::size_t job_count = jobs_.size();
  std::vector<JobTable::iterator> seats;
  std::vector<const core::SampleMessage*> samples;
  seats.reserve(job_count);
  samples.reserve(job_count);
  bool all_bootstrap = true;
  std::uint64_t round_sequence = 0;
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    const core::SampleMessage& sample = it->second.latch.consume();
    seats.push_back(it);
    samples.push_back(&sample);
    all_bootstrap = all_bootstrap && sample.sequence == 0;
    round_sequence = std::max(round_sequence, sample.sequence);
  }

  // Adopt scheduled budget revisions due for this round. A revision
  // with at_epoch e maps to the round consuming sample sequence e + 1
  // (the in-memory loop's epoch-e RM step), so both executions see the
  // same budget at the same allocation.
  if (round_sequence > 0) {
    schedule_.adopt_due(round_sequence - 1, budget_,
                        "daemon.scheduled_revision",
                        [this](const core::BudgetRevision& revision,
                               bool adopted) {
                          on_revision(revision, adopted, revision.at_epoch);
                        });
  }
  const double budget_watts = budget_.budget_watts();

  // The round itself: a bootstrap round seeds; later rounds allocate,
  // and keep-vs-clamp sees every job's stored caps. Its inputs go out of
  // scope before the fan-out.
  core::RoundOutcome round = [&] {
    std::vector<core::JobLimits> limits;
    rm::PowerAllocation stored;
    limits.reserve(job_count);
    stored.job_host_caps.reserve(job_count);
    stored.job_host_gpu_caps.reserve(job_count);
    for (std::size_t j = 0; j < job_count; ++j) {
      const JobRecord& record = seats[j]->second;
      limits.push_back(limits_from_sample(*samples[j],
                                          options_.node_tdp_watts));
      stored.job_host_caps.push_back(record.last_caps_watts);
      stored.job_host_gpu_caps.push_back(record.last_gpu_caps_watts);
    }
    if (all_bootstrap) {
      return core::ControlRound{.jobs = limits, .budget_watts = budget_watts}
          .run();
    }
    const core::PolicyContext context = core::context_from_samples(
        budget_watts, options_.node_tdp_watts, options_.uncappable_watts,
        samples);
    return core::ControlRound{.jobs = limits,
                              .budget_watts = budget_watts,
                              .policy = policy_.get(),
                              .context = &context,
                              .caps_in_force = &stored,
                              .budget_binds = policy_->is_system_aware()}
        .run();
  }();
  // A kept round answers every job holding caps with those caps, tagged
  // with this round's sequence, so no client waits out its request
  // timeout. It programs nothing new: no caps trace, no allocation count
  // and no snapshot, so the deterministic stream and the round clock are
  // those of a round that sent nothing.
  const bool kept = round.verdict == core::RoundVerdict::kKeep;
  if (round.over_budget) {
    // A policy output a site would reject: the round kept every job on
    // its stored caps if they still fit, else emergency-clamped it.
    options_.obs.count("net.daemon.budget_violations");
    options_.obs.emit(round_sequence, obs::cat::kDaemon, "violation",
                      {{"budget_watts", budget_watts}});
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.budget_violations;
      stats_.emergency_clamps += kept ? 0 : 1;
    }
    if (!kept) {
      options_.obs.count("net.daemon.emergency_clamps");
    }
  }

  std::vector<core::PolicyMessage> messages(job_count);
  for (std::size_t j = 0; j < job_count; ++j) {
    auto& [name, record] = *seats[j];
    core::PolicyMessage& message = messages[j];
    if (kept) {
      record.last_sequence = samples[j]->sequence;
      message = stored_policy(name, record);
      continue;
    }
    message.host_caps_watts = std::move(round.caps.job_host_caps[j]);
    if (j < round.caps.job_host_gpu_caps.size()) {
      message.host_gpu_caps_watts =
          std::move(round.caps.job_host_gpu_caps[j]);
    }
    message.sequence = samples[j]->sequence;
    message.job_name = name;
    message.budget_epoch = budget_.budget_epoch();
    message.fence_epoch = fence_epoch_;
    record.last_caps_watts = message.host_caps_watts;
    record.last_gpu_caps_watts = message.host_gpu_caps_watts;
    record.last_sequence = message.sequence;
    record.have_policy = true;
  }
  // The round's deterministic trace record, on the round-sequence clock:
  // round r here is coordination epoch r-1's RM step, and the caps carry
  // exact numeric fidelity — enough to replay the allocation watt-for-watt.
  if (options_.obs.tracing() && !kept) {
    for (const core::PolicyMessage& message : messages) {
      options_.obs.trace->emit(obs::caps_event(
          round_sequence, obs::cat::kDaemon,
          {{"job", message.job_name}, {"sequence", message.sequence}},
          message.host_caps_watts, message.host_gpu_caps_watts));
    }
    options_.obs.emit(round_sequence, obs::cat::kDaemon, "round",
                      {{"round", round_sequence},
                       {"jobs", static_cast<std::uint64_t>(messages.size())},
                       {"budget_watts", budget_watts},
                       {"budget_epoch", budget_.budget_epoch()},
                       {"allocated_watts", round.total_watts},
                       {"bootstrap", all_bootstrap},
                       {"emergency",
                        round.verdict == core::RoundVerdict::kClamp}});
  }
  if (!kept) {
    options_.obs.count("net.daemon.allocations");
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.allocations;
    }
    // Write-ahead: persist the round before any reply can leave, so a
    // crash between send and restart rehydrates exactly the caps a
    // client may already have heard.
    maybe_write_snapshot();
  }

  std::size_t sent = 0;
  std::size_t rack_frames = 0;
  std::size_t fanout_sessions = 0;
  {
    // Coalesce the whole round's fan-out: each session is flushed once
    // at batch close, so a round writes one frame run per peer instead
    // of one write(2) per policy.
    const SessionTable::Batch batch(sessions_);
    std::map<int, core::RackPolicyMessage> rack_replies;
    // A rack's jobs are neighbors in name order, so the session (and rack
    // reply) of the job before is looked up again only when the fd
    // changes. Queueing inside the batch only appends, so a session found
    // here stays in the table until the batch flushes.
    int session_fd = -1;
    NetSession* session = nullptr;
    core::RackPolicyMessage* reply = nullptr;
    for (std::size_t j = 0; j < job_count; ++j) {
      const JobRecord& record = seats[j]->second;
      if (record.session_fd < 0) {
        continue;  // in grace: caps are stored, resent on reconnect
      }
      if (!record.have_policy) {
        continue;  // kept round: this job holds no caps to keep
      }
      if (record.session_fd != session_fd) {
        session_fd = record.session_fd;
        session = sessions_.find(session_fd);
        reply = nullptr;
        if (session != nullptr && session->is_rack) {
          const auto [slot, created] = rack_replies.try_emplace(session_fd);
          reply = &slot->second;
          if (created) {
            reply->rack = session->rack_name;
            reply->policies.reserve(session->rack_jobs.size());
          }
        }
      }
      if (session == nullptr) {
        continue;
      }
      if (reply != nullptr) {
        // One batched rack-policy frame per aggregator, not one frame
        // per job: the rack budget it carries is the sum of its jobs'
        // caps, i.e. the rack's renegotiated share for this epoch. The
        // trace has been emitted, so the message can move.
        add_to_rack_reply(*reply, std::move(messages[j]));
      } else {
        queue_message(session_fd, *session, messages[j]);
        ++fanout_sessions;
      }
      ++sent;
    }
    for (auto& [fd, reply] : rack_replies) {
      NetSession* session = sessions_.find(fd);
      if (session == nullptr) {
        continue;  // closed while queueing its peers' frames
      }
      sessions_.queue_frame(
          fd, *session,
          encode_frame(serialize(reply, core::WireFidelity::kExact)));
      ++rack_frames;
      ++fanout_sessions;
    }
    // Counted before the batch flushes: a client holding its reply must
    // find it in stats().
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    (kept ? stats_.policies_resent : stats_.policies_sent) += sent;
    (kept ? stats_.rack_policies_resent : stats_.rack_policies_sent) +=
        rack_frames;
  }
  if (round_latency_ != nullptr) {
    round_latency_->observe(
        std::chrono::duration<double>(Clock::now() - round_start).count());
  }
  options_.obs.set_gauge("net.daemon.fanout",
                         static_cast<double>(fanout_sessions));
  options_.obs.set_gauge("net.daemon.racks",
                         static_cast<double>(rack_frames));
  if (kept && rack_frames > 0) {
    options_.obs.count("net.daemon.rack_policies_resent", rack_frames);
  }
}

void PowerDaemon::maybe_write_snapshot() {
  if (options_.snapshot_path.empty() && !options_.replication_sink) {
    return;
  }
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = budget_.budget_watts();
  snapshot.budget_epoch = budget_.budget_epoch();
  snapshot.budget_emergency = budget_emergency_;
  snapshot.fence_epoch = fence_epoch_;
  snapshot.launch_barrier_met = launch_barrier_met_;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    snapshot.allocations = allocation_epoch_base_ + stats_.allocations;
  }
  for (const auto& [name, record] : jobs_) {
    if (!record.have_policy) {
      continue;
    }
    SnapshotJob job;
    job.name = name;
    job.sequence = record.last_sequence;
    job.caps_watts = record.last_caps_watts;
    job.gpu_caps_watts = record.last_gpu_caps_watts;
    snapshot.jobs.push_back(std::move(job));
  }
  if (!options_.snapshot_path.empty()) {
    try {
      save_snapshot(options_.snapshot_path, snapshot);
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.snapshots_written;
      }
      options_.obs.count("net.daemon.snapshots_written");
      options_.obs.emit(
          snapshot.allocations, obs::cat::kDaemon, "snapshot",
          {{"jobs", static_cast<std::uint64_t>(snapshot.jobs.size())},
           {"budget_epoch", budget_.budget_epoch()}});
    } catch (const Error&) {
      // Disk trouble must degrade durability, never live coordination.
    }
  }
  if (options_.replication_sink) {
    // Same write-ahead point as the disk snapshot: the standby always
    // holds at least the state any client may already have heard.
    options_.replication_sink(snapshot);
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.replication_updates;
    }
    options_.obs.count("net.daemon.replication_updates");
  }
}

void PowerDaemon::on_tick() {
  sessions_.admit_adopted();
  apply_pending_revisions();
  const auto now = Clock::now();
  prune_quarantine(now);
  sessions_.sweep_idle(options_.idle_timeout);

  std::vector<std::string> evictions;
  for (const auto& [name, record] : jobs_) {
    if (record.session_fd < 0 &&
        now - record.disconnected_at > options_.reclaim_timeout) {
      evictions.push_back(name);  // grace expired: reclaim the watts
    }
  }
  bool round_waiting = false;
  for (const auto& [name, record] : jobs_) {
    if (record.latch.has_fresh()) {
      round_waiting = true;
      break;
    }
  }
  if (round_waiting) {
    // A half-open peer (connected, never heard from again) only matters
    // when it is holding a round hostage; an idle-but-healthy mix
    // between epochs is not a liveness failure.
    for (const auto& [name, record] : jobs_) {
      if (record.session_fd >= 0 && !record.latch.has_fresh() &&
          record.last_sample_at != Clock::time_point{} &&
          now - record.last_sample_at > options_.heartbeat_timeout) {
        evictions.push_back(name);
      }
    }
  }
  evict_jobs(evictions);
  try_allocate();
}

}  // namespace ps::net
