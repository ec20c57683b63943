#include "net/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/coordination.hpp"
#include "core/endpoint.hpp"
#include "net/agent.hpp"
#include "net/client.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::string unique_path(const std::string& tag, const std::string& suffix) {
  return "/tmp/ps-recovery-" + tag + "-" + std::to_string(::getpid()) +
         suffix;
}

kernel::WorkloadConfig wasteful_config() {
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 3.0;
  return config;
}

kernel::WorkloadConfig hungry_config() {
  kernel::WorkloadConfig config;
  config.intensity = 32.0;
  return config;
}

DaemonOptions daemon_options(const sim::Cluster& cluster, double budget,
                             std::size_t min_jobs) {
  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = cluster.node(0).tdp();
  options.uncappable_watts = cluster.node(0).params().dram_watts;
  options.min_jobs = min_jobs;
  options.tick_interval = milliseconds(10);
  return options;
}

ClientOptions patient_client() {
  ClientOptions options;
  options.request_timeout = milliseconds(20'000);
  return options;
}

/// A connector over a one-shot pool of pre-adopted loopback sockets.
RuntimeClient::Connector pool_connector(std::deque<Socket>& pool) {
  return [&pool]() -> Socket {
    if (pool.empty()) {
      throw Error("loopback pool exhausted");
    }
    Socket socket = std::move(pool.front());
    pool.pop_front();
    return socket;
  };
}

core::SampleMessage raw_sample(const std::string& job, std::uint64_t seq,
                               std::size_t hosts) {
  core::SampleMessage sample;
  sample.sequence = seq;
  sample.job_name = job;
  sample.min_settable_cap_watts = 152.0;
  sample.host_observed_watts.assign(hosts, 160.0);
  sample.host_needed_watts.assign(hosts, 180.0);
  return sample;
}

/// A protocol-speaking test client over one raw loopback socket: no
/// backoff, no agent — full control of what goes on the wire and when.
struct RawClient {
  Socket socket;
  FrameDecoder decoder;

  void send_frame(const std::string& frame) {
    std::string_view rest = frame;
    while (!rest.empty()) {
      const IoResult result = socket.write_some(rest);
      ASSERT_NE(result.status, IoStatus::kClosed) << "daemon hung up";
      if (result.status == IoStatus::kOk) {
        rest.remove_prefix(result.bytes);
      } else {
        ASSERT_TRUE(socket.wait_writable(milliseconds(1'000)));
      }
    }
  }

  void send(const core::SampleMessage& sample) {
    send_frame(
        encode_frame(serialize(sample, core::WireFidelity::kExact)));
  }

  std::optional<core::PolicyMessage> read_policy(milliseconds timeout) {
    const auto deadline = steady_clock::now() + timeout;
    while (steady_clock::now() < deadline) {
      if (auto payload = decoder.next()) {
        return core::parse_policy_message(*payload);
      }
      if (!socket.wait_readable(milliseconds(50))) {
        continue;
      }
      char buffer[4096];
      const IoResult result = socket.read_some(buffer, sizeof(buffer));
      if (result.status == IoStatus::kClosed) {
        return std::nullopt;
      }
      if (result.status == IoStatus::kOk) {
        decoder.feed(std::string_view(buffer, result.bytes));
      }
    }
    return std::nullopt;
  }

  /// True once the daemon has closed this connection.
  bool closed_by_peer(milliseconds timeout) {
    const auto deadline = steady_clock::now() + timeout;
    while (steady_clock::now() < deadline) {
      if (!socket.wait_readable(milliseconds(50))) {
        continue;
      }
      char buffer[4096];
      const IoResult result = socket.read_some(buffer, sizeof(buffer));
      if (result.status == IoStatus::kClosed) {
        return true;
      }
    }
    return false;
  }
};

/// S2 regression: eviction returns a job's watts to the pool exactly once
/// — across the disconnect-grace path, repeated ticks, and a second
/// eviction of a re-registered record that never earned caps.
TEST(DaemonRecoveryTest, EvictionReclaimsWattsExactlyOnce) {
  sim::Cluster cluster(4);
  std::vector<hw::NodeModel*> hosts_a{&cluster.node(0), &cluster.node(1)};
  std::vector<hw::NodeModel*> hosts_b{&cluster.node(2), &cluster.node(3)};
  sim::JobSimulation job_a("a-stays", std::move(hosts_a), hungry_config());
  sim::JobSimulation job_b("b-leaves", std::move(hosts_b),
                           hungry_config());

  const double budget = 800.0;
  DaemonOptions options = daemon_options(cluster, budget, 2);
  options.reclaim_timeout = milliseconds(50);
  PowerDaemon daemon(options);
  std::thread serving([&daemon] { daemon.run(); });

  auto [client_a_end, daemon_a_end] = loopback_pair();
  auto [client_b_end, daemon_b_end] = loopback_pair();
  daemon.adopt(std::move(daemon_a_end));
  daemon.adopt(std::move(daemon_b_end));
  std::deque<Socket> pool_a;
  pool_a.push_back(std::move(client_a_end));
  std::deque<Socket> pool_b;
  pool_b.push_back(std::move(client_b_end));
  RuntimeClient client_a(pool_connector(pool_a), patient_client());
  auto client_b = std::make_unique<RuntimeClient>(pool_connector(pool_b),
                                                  patient_client());
  CoordinatedAgent agent_a(job_a, client_a);
  CoordinatedAgent agent_b(job_b, *client_b);

  std::thread side_b([&agent_b] { static_cast<void>(agent_b.run(5)); });
  const AgentResult both = agent_a.run(5);
  side_b.join();
  ASSERT_EQ(both.fallback_epochs, 0u);

  // The watts job b holds right now: its caps from the last round.
  const double b_watts = job_b.host_cap(0) + job_b.host_cap(1);
  ASSERT_GT(b_watts, 0.0);

  // Drop the client; the daemon sees EOF, runs out the 50 ms grace, and
  // then many more ticks pass — each a chance to double-count.
  client_b.reset();
  std::this_thread::sleep_for(milliseconds(400));

  DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.jobs_evicted, 1u);
  EXPECT_DOUBLE_EQ(stats.watts_reclaimed, b_watts);
  EXPECT_GT(stats.reclaim_seconds_total, 0.0);

  // A returning job that gets evicted again before it ever earns caps
  // must not return watts it never held.
  auto [retry_end, daemon_retry_end] = loopback_pair();
  daemon.adopt(std::move(daemon_retry_end));
  RawClient retry{std::move(retry_end), FrameDecoder{}};
  retry.send(raw_sample("b-leaves", 0, 2));
  std::this_thread::sleep_for(milliseconds(100));  // registered, no round
  retry.socket.close();
  std::this_thread::sleep_for(milliseconds(400));

  stats = daemon.stats();
  EXPECT_EQ(stats.jobs_evicted, 2u);
  EXPECT_DOUBLE_EQ(stats.watts_reclaimed, b_watts);  // unchanged

  // The freed watts fund the survivor's next rounds.
  const double cap_while_shared = job_a.host_cap(0);
  const AgentResult alone = agent_a.run(5);
  daemon.stop();
  serving.join();
  EXPECT_EQ(alone.fallback_epochs, 0u);
  EXPECT_GT(job_a.host_cap(0), cap_while_shared);
}

/// A mass grace expiry is one eviction batch, and the batch persists once:
/// no reply leaves between its evictions, so a single write-ahead snapshot
/// after the batch covers them all. The file then holds exactly the jobs
/// that reconnected within the grace.
TEST(DaemonRecoveryTest, MassGraceExpiryWritesOneSnapshotPerBatch) {
  constexpr std::size_t kDoomed = 24;
  constexpr std::uint64_t kSequence = 3;
  const std::vector<std::string> survivors{"survivor-a", "survivor-b"};
  const double budget = 20'000.0;

  // Every restored record starts its grace at boot, so all the jobs that
  // do not reconnect expire on the same tick.
  DaemonSnapshot seeded;
  seeded.system_budget_watts = budget;
  seeded.launch_barrier_met = true;
  seeded.allocations = kSequence;
  std::vector<std::string> names = survivors;
  for (std::size_t j = 0; j < kDoomed; ++j) {
    names.push_back("doomed-" + std::to_string(j));
  }
  for (const std::string& name : names) {
    SnapshotJob job;
    job.name = name;
    job.sequence = kSequence;
    job.caps_watts = {150.0, 150.0};
    seeded.jobs.push_back(job);
  }
  const std::string snapshot_path = unique_path("mass-expiry", ".snap");
  save_snapshot(snapshot_path, seeded);

  DaemonOptions options;
  options.system_budget_watts = budget;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(1'000);
  options.snapshot_path = snapshot_path;
  PowerDaemon daemon(options);
  ASSERT_EQ(daemon.stats().jobs_restored, names.size());
  std::thread serving([&daemon] { daemon.run(); });

  // The survivors reconnect within the grace and retry their answered
  // sequence: the daemon resends the stored caps, starting no round.
  std::vector<RawClient> clients;
  for (const std::string& name : survivors) {
    auto [client_end, daemon_end] = loopback_pair();
    daemon.adopt(std::move(daemon_end));
    clients.push_back(RawClient{std::move(client_end), FrameDecoder{}});
    clients.back().send(raw_sample(name, kSequence, 2));
    const auto policy = clients.back().read_policy(milliseconds(5'000));
    ASSERT_TRUE(policy.has_value()) << name;
    EXPECT_EQ(policy->sequence, kSequence);
  }
  const DaemonStats before = daemon.stats();
  ASSERT_EQ(before.jobs_evicted, 0u) << "grace expired before the test ran";

  const auto deadline = steady_clock::now() + milliseconds(10'000);
  while (daemon.stats().jobs_evicted < kDoomed &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(20));
  }
  std::this_thread::sleep_for(milliseconds(100));  // ten more ticks
  const DaemonStats after = daemon.stats();
  daemon.stop();
  serving.join();

  EXPECT_EQ(after.jobs_evicted, kDoomed);
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.snapshots_written, before.snapshots_written + 1);
  const std::optional<DaemonSnapshot> on_disk = load_snapshot(snapshot_path);
  std::remove(snapshot_path.c_str());
  ASSERT_TRUE(on_disk.has_value());
  std::vector<std::string> kept;
  for (const SnapshotJob& job : on_disk->jobs) {
    kept.push_back(job.name);
  }
  EXPECT_EQ(kept, survivors);
}

/// A half-open peer (connected, silent) holding a round hostage is
/// stall-evicted once the heartbeat window passes, and the round then
/// completes for the jobs still reporting.
TEST(DaemonRecoveryTest, StalledClientIsEvictedWhenHoldingTheRound) {
  sim::Cluster cluster(4);
  std::vector<hw::NodeModel*> hosts_a{&cluster.node(0), &cluster.node(1)};
  sim::JobSimulation job_a("a-alive", std::move(hosts_a), hungry_config());

  const double budget = 800.0;
  DaemonOptions options = daemon_options(cluster, budget, 2);
  options.heartbeat_timeout = milliseconds(150);
  options.reclaim_timeout = milliseconds(30'000);  // isolate the stall path
  PowerDaemon daemon(options);
  std::thread serving([&daemon] { daemon.run(); });

  auto [client_a_end, daemon_a_end] = loopback_pair();
  auto [client_b_end, daemon_b_end] = loopback_pair();
  daemon.adopt(std::move(daemon_a_end));
  daemon.adopt(std::move(daemon_b_end));

  // Job b bootstraps once (a real, accepted sample) and then goes mute
  // while keeping its connection open — the classic half-open peer.
  RawClient stalled{std::move(client_b_end), FrameDecoder{}};
  stalled.send(raw_sample("b-stalled", 0, 2));

  std::deque<Socket> pool_a;
  pool_a.push_back(std::move(client_a_end));
  RuntimeClient client_a(pool_connector(pool_a), patient_client());
  CoordinatedAgent agent_a(job_a, client_a);
  const AgentResult result = agent_a.run(10);

  // b's bootstrap share arrived (the launch round included it) ...
  const auto bootstrap = stalled.read_policy(milliseconds(2'000));
  ASSERT_TRUE(bootstrap.has_value());
  const double share = budget / 4.0;
  ASSERT_EQ(bootstrap->host_caps_watts.size(), 2u);
  EXPECT_DOUBLE_EQ(bootstrap->host_caps_watts[0], share);

  // ... but every later round completed without b: the stall eviction
  // freed its seat (and its bootstrap watts) instead of wedging job a.
  EXPECT_EQ(result.fallback_epochs, 0u);
  EXPECT_EQ(result.policies_applied, 1 + result.epochs);
  EXPECT_TRUE(stalled.closed_by_peer(milliseconds(2'000)));
  daemon.stop();
  serving.join();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.jobs_evicted, 1u);
  EXPECT_DOUBLE_EQ(stats.watts_reclaimed, 2.0 * share);
  EXPECT_GT(job_a.host_cap(0), share);
}

/// Repeated protocol abuse quarantines the job: eviction plus a
/// registration ban that expires on schedule.
TEST(DaemonRecoveryTest, QuarantineBlocksARepeatOffenderThenExpires) {
  sim::Cluster cluster(1);
  DaemonOptions options = daemon_options(cluster, 400.0, 1);
  options.quarantine_errors = 2;
  options.quarantine_period = milliseconds(300);
  options.reclaim_timeout = milliseconds(30'000);  // record survives drops
  PowerDaemon daemon(options);
  std::thread serving([&daemon] { daemon.run(); });

  const auto connect_abuser = [&daemon]() -> RawClient {
    auto [client_end, daemon_end] = loopback_pair();
    daemon.adopt(std::move(daemon_end));
    return RawClient{std::move(client_end), FrameDecoder{}};
  };

  // Two rounds of: register validly, then send a frame whose payload is
  // not a message. Each costs one protocol error; the second crosses the
  // quarantine threshold and evicts the job.
  for (int round = 0; round < 2; ++round) {
    RawClient abuser = connect_abuser();
    abuser.send(raw_sample("abuser", 0, 1));
    ASSERT_TRUE(abuser.read_policy(milliseconds(2'000)).has_value())
        << "round " << round;
    abuser.send_frame(encode_frame("this is not a sample message"));
    ASSERT_TRUE(abuser.closed_by_peer(milliseconds(2'000)))
        << "round " << round;
  }
  DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.jobs_evicted, 1u);
  EXPECT_GT(stats.watts_reclaimed, 0.0);

  // Inside the ban: registration is refused outright — no reply, closed.
  RawClient banned = connect_abuser();
  banned.send(raw_sample("abuser", 0, 1));
  EXPECT_TRUE(banned.closed_by_peer(milliseconds(2'000)));
  stats = daemon.stats();
  EXPECT_EQ(stats.quarantine_rejections, 1u);

  // After the ban expires the job is welcome again.
  std::this_thread::sleep_for(milliseconds(350));
  RawClient reformed = connect_abuser();
  reformed.send(raw_sample("abuser", 0, 1));
  EXPECT_TRUE(reformed.read_policy(milliseconds(2'000)).has_value());
  daemon.stop();
  serving.join();
}

/// A retried sequence the daemon already answered gets the stored caps
/// resent — it must not start (or tear) an allocation round.
TEST(DaemonRecoveryTest, LostReplyIsResentNotReallocated) {
  sim::Cluster cluster(2);
  PowerDaemon daemon(daemon_options(cluster, 400.0, 1));
  std::thread serving([&daemon] { daemon.run(); });

  auto [client_end, daemon_end] = loopback_pair();
  daemon.adopt(std::move(daemon_end));
  RawClient client{std::move(client_end), FrameDecoder{}};

  client.send(raw_sample("solo", 0, 2));
  const auto first = client.read_policy(milliseconds(2'000));
  ASSERT_TRUE(first.has_value());

  // The reply "was lost": the client retries the same sequence.
  client.send(raw_sample("solo", 0, 2));
  const auto second = client.read_policy(milliseconds(2'000));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);  // identical caps, identical sequence
  daemon.stop();
  serving.join();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.allocations, 1u);  // one round, not two
  EXPECT_EQ(stats.policies_resent, 1u);
  EXPECT_EQ(stats.samples_stale, 1u);
  EXPECT_EQ(stats.samples_received, 2u);
}

/// Acceptance criterion: a daemon restarted over its snapshot rehydrates
/// every job without re-running the launch barrier, and the coordinated
/// mix finishes on exactly the caps an uninterrupted in-memory
/// CoordinationLoop computes — watt for watt.
TEST(DaemonRecoveryTest, SnapshotRestartReconvergesWattForWatt) {
  const double budget = 4.0 * 180.0;
  const std::size_t iterations = 20;

  // Reference: the uninterrupted in-memory loop over an identical mix.
  sim::Cluster reference_cluster(4);
  std::vector<hw::NodeModel*> ref_a{&reference_cluster.node(0),
                                    &reference_cluster.node(1)};
  std::vector<hw::NodeModel*> ref_b{&reference_cluster.node(2),
                                    &reference_cluster.node(3)};
  sim::JobSimulation ref_job_a("a-hungry", std::move(ref_a),
                               hungry_config());
  sim::JobSimulation ref_job_b("b-wasteful", std::move(ref_b),
                               wasteful_config());
  std::vector<sim::JobSimulation*> reference_jobs{&ref_job_a, &ref_job_b};
  core::CoordinationLoop loop(budget);
  static_cast<void>(loop.run(reference_jobs, iterations));

  // Distributed: same mix, but the daemon dies and restarts halfway.
  sim::Cluster cluster(4);
  std::vector<hw::NodeModel*> hosts_a{&cluster.node(0), &cluster.node(1)};
  std::vector<hw::NodeModel*> hosts_b{&cluster.node(2), &cluster.node(3)};
  sim::JobSimulation job_a("a-hungry", std::move(hosts_a),
                           hungry_config());
  sim::JobSimulation job_b("b-wasteful", std::move(hosts_b),
                           wasteful_config());

  const std::string socket_path = unique_path("restart", ".sock");
  const std::string snapshot_path = unique_path("restart", ".snap");
  DaemonOptions options = daemon_options(cluster, budget, 2);
  options.snapshot_path = snapshot_path;

  ClientOptions client_options = patient_client();
  client_options.backoff_initial = milliseconds(5);
  client_options.backoff_max = milliseconds(50);
  RuntimeClient client_a([&socket_path] {
    return connect_unix(socket_path);
  }, client_options);
  RuntimeClient client_b([&socket_path] {
    return connect_unix(socket_path);
  }, client_options);
  CoordinatedAgent agent_a(job_a, client_a);
  CoordinatedAgent agent_b(job_b, client_b);

  const auto run_half = [&](PowerDaemon& daemon) {
    std::thread serving([&daemon] { daemon.run(); });
    std::thread side_b([&agent_b] {
      const AgentResult r = agent_b.run(10);
      EXPECT_EQ(r.fallback_epochs, 0u);
    });
    const AgentResult r = agent_a.run(10);
    EXPECT_EQ(r.fallback_epochs, 0u);
    side_b.join();
    daemon.stop();
    serving.join();
  };

  auto daemon = std::make_unique<PowerDaemon>(options);
  daemon->listen_unix(socket_path);
  run_half(*daemon);
  EXPECT_GT(daemon->stats().snapshots_written, 0u);
  EXPECT_EQ(daemon->stats().launch_barriers, 1u);
  daemon.reset();  // the daemon dies; only the snapshot survives

  daemon = std::make_unique<PowerDaemon>(options);
  EXPECT_EQ(daemon->stats().jobs_restored, 2u);
  daemon->listen_unix(socket_path);
  run_half(*daemon);

  const DaemonStats stats = daemon->stats();
  // The proof the barrier never re-ran: both jobs were rehydrated, and
  // the restarted daemon crossed no launch barrier of its own.
  EXPECT_EQ(stats.launch_barriers, 0u);
  EXPECT_EQ(stats.sessions_rehydrated, 2u);
  EXPECT_EQ(stats.budget_violations, 0u);
  daemon.reset();
  std::remove(snapshot_path.c_str());

  for (std::size_t h = 0; h < 2; ++h) {
    EXPECT_DOUBLE_EQ(job_a.host_cap(h), ref_job_a.host_cap(h))
        << "job a host " << h;
    EXPECT_DOUBLE_EQ(job_b.host_cap(h), ref_job_b.host_cap(h))
        << "job b host " << h;
  }
}

}  // namespace
}  // namespace ps::net
