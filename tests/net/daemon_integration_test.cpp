#include "net/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/coordination.hpp"
#include "net/agent.hpp"
#include "net/client.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/ps-daemon-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
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

/// A four-job mix on its own 16-node cluster. Job names sort in the
/// construction order, so the in-memory loop and the daemon (which orders
/// sessions by job name) see the same job sequence.
struct Mix {
  explicit Mix(std::size_t hosts_per_job = 4) {
    const std::vector<std::pair<std::string, kernel::WorkloadConfig>> spec =
        {{"a-wasteful", wasteful_config()},
         {"b-hungry", hungry_config()},
         {"c-wasteful", wasteful_config()},
         {"d-hungry", hungry_config()}};
    cluster = std::make_unique<sim::Cluster>(hosts_per_job * spec.size());
    for (std::size_t j = 0; j < spec.size(); ++j) {
      std::vector<hw::NodeModel*> hosts;
      for (std::size_t h = 0; h < hosts_per_job; ++h) {
        hosts.push_back(&cluster->node(j * hosts_per_job + h));
      }
      jobs.push_back(std::make_unique<sim::JobSimulation>(
          spec[j].first, std::move(hosts), spec[j].second));
    }
  }

  std::unique_ptr<sim::Cluster> cluster;
  std::vector<std::unique_ptr<sim::JobSimulation>> jobs;
};

DaemonOptions daemon_options(const sim::Cluster& cluster, double budget,
                             std::size_t min_jobs) {
  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = cluster.node(0).tdp();
  options.uncappable_watts = cluster.node(0).params().dram_watts;
  options.min_jobs = min_jobs;
  options.tick_interval = milliseconds(20);
  return options;
}

ClientOptions patient_client() {
  ClientOptions options;
  options.request_timeout = milliseconds(20'000);
  return options;
}

/// The acceptance bar for the whole subsystem: four concurrent clients,
/// real Unix sockets, framed wire messages — and the caps every host ends
/// up with are bit-for-bit the caps the in-memory CoordinationLoop
/// programs for the identical mix. Byte transport adds no drift because
/// the exact wire fidelity round-trips every double.
TEST(DaemonIntegrationTest, MatchesInMemoryCoordinationWattForWatt) {
  const double budget = 16.0 * 180.0;
  const std::size_t iterations = 20;

  // Reference: the in-memory loop over one mix.
  Mix reference;
  std::vector<sim::JobSimulation*> reference_jobs;
  for (const auto& job : reference.jobs) {
    reference_jobs.push_back(job.get());
  }
  core::CoordinationLoop loop(budget);
  static_cast<void>(loop.run(reference_jobs, iterations));

  // Distributed: an identical mix, one daemon, four threaded agents.
  Mix distributed;
  const std::string path = unique_socket_path("equality");
  PowerDaemon daemon(daemon_options(*distributed.cluster, budget,
                                    distributed.jobs.size()));
  daemon.listen_unix(path);
  std::thread serving([&daemon] { daemon.run(); });

  std::vector<AgentResult> results(distributed.jobs.size());
  std::vector<std::thread> agents;
  for (std::size_t j = 0; j < distributed.jobs.size(); ++j) {
    agents.emplace_back([&, j] {
      RuntimeClient client([&path] { return connect_unix(path); },
                           patient_client());
      CoordinatedAgent agent(*distributed.jobs[j], client);
      results[j] = agent.run(iterations);
    });
  }
  for (std::thread& agent : agents) {
    agent.join();
  }
  daemon.stop();
  serving.join();

  // Every round was served: the launch bootstrap plus one per epoch.
  for (const AgentResult& result : results) {
    EXPECT_EQ(result.iterations, iterations);
    EXPECT_EQ(result.policies_applied, 1 + result.epochs);
    EXPECT_EQ(result.fallback_epochs, 0u);
  }
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_accepted, distributed.jobs.size());
  EXPECT_EQ(stats.allocations, 1 + iterations / 5);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.budget_violations, 0u);

  // The tentpole claim: exact equality, not approximate agreement.
  for (std::size_t j = 0; j < distributed.jobs.size(); ++j) {
    for (std::size_t h = 0; h < distributed.jobs[j]->host_count(); ++h) {
      EXPECT_DOUBLE_EQ(distributed.jobs[j]->host_cap(h),
                       reference_jobs[j]->host_cap(h))
          << "job " << distributed.jobs[j]->name() << " host " << h;
    }
  }
}

/// Daemon death mid-run: the job keeps computing on its last-known caps,
/// the client backs off exponentially, and a restarted daemon picks the
/// session back up at the job's current sequence number.
TEST(DaemonIntegrationTest, KilledDaemonFallbackAndReconnect) {
  sim::Cluster cluster(4);
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t h = 0; h < 4; ++h) {
    hosts.push_back(&cluster.node(h));
  }
  sim::JobSimulation job("solo", std::move(hosts), hungry_config());
  const double budget = 4.0 * 180.0;
  const std::string path = unique_socket_path("killed");

  ClientOptions options;
  options.request_timeout = milliseconds(400);
  options.backoff_initial = milliseconds(5);
  options.backoff_max = milliseconds(40);
  RuntimeClient client([&path] { return connect_unix(path); }, options);
  CoordinatedAgent agent(job, client);

  // Phase 1: coordinated epochs against a live daemon.
  auto daemon = std::make_unique<PowerDaemon>(
      daemon_options(cluster, budget, 1));
  daemon->listen_unix(path);
  std::thread serving([&daemon] { daemon->run(); });
  const AgentResult live = agent.run(10);
  EXPECT_EQ(live.policies_applied, 1 + live.epochs);
  EXPECT_EQ(live.fallback_epochs, 0u);

  // Kill the daemon: sessions close, the socket file disappears.
  daemon->stop();
  serving.join();
  daemon.reset();

  std::vector<double> caps_at_death(job.host_count());
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    caps_at_death[h] = job.host_cap(h);
  }

  // Phase 2: every exchange fails; the job must keep its last caps and
  // the client must walk its backoff schedule to the cap.
  const AgentResult orphaned = agent.run(10);
  EXPECT_EQ(orphaned.policies_applied, 0u);
  EXPECT_EQ(orphaned.fallback_epochs, orphaned.epochs);
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    EXPECT_DOUBLE_EQ(job.host_cap(h), caps_at_death[h]) << "host " << h;
  }
  ASSERT_TRUE(client.last_known_policy().has_value());
  EXPECT_GT(client.stats().connect_failures, 0u);
  EXPECT_EQ(client.current_backoff(), options.backoff_max);

  // Phase 3: a fresh daemon on the same path; the client reconnects and
  // coordination resumes at the job's continued sequence numbers.
  daemon = std::make_unique<PowerDaemon>(
      daemon_options(cluster, budget, 1));
  daemon->listen_unix(path);
  std::thread revived([&daemon] { daemon->run(); });
  const AgentResult resumed = agent.run(10);
  daemon->stop();
  revived.join();
  EXPECT_EQ(resumed.policies_applied, resumed.epochs);
  EXPECT_EQ(resumed.fallback_epochs, 0u);
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GT(agent.sequence(), 4u);
}

/// Loopback transport + departure: when a job disconnects, the next
/// allocation round spreads the freed watts over the remaining jobs.
TEST(DaemonIntegrationTest, DisconnectReturnsWattsToThePool) {
  sim::Cluster cluster(4);
  std::vector<hw::NodeModel*> hosts_a{&cluster.node(0), &cluster.node(1)};
  std::vector<hw::NodeModel*> hosts_b{&cluster.node(2), &cluster.node(3)};
  sim::JobSimulation job_a("a-stays", std::move(hosts_a), hungry_config());
  sim::JobSimulation job_b("b-leaves", std::move(hosts_b), hungry_config());

  const double budget = 800.0;
  PowerDaemon daemon(daemon_options(cluster, budget, 2));
  std::thread serving([&daemon] { daemon.run(); });

  auto [client_a_end, daemon_a_end] = loopback_pair();
  auto [client_b_end, daemon_b_end] = loopback_pair();
  daemon.adopt(std::move(daemon_a_end));
  daemon.adopt(std::move(daemon_b_end));

  std::deque<Socket> pool_a;
  pool_a.push_back(std::move(client_a_end));
  RuntimeClient client_a(
      [&pool_a]() -> Socket {
        if (pool_a.empty()) {
          throw Error("loopback exhausted");
        }
        Socket socket = std::move(pool_a.front());
        pool_a.pop_front();
        return socket;
      },
      patient_client());
  std::deque<Socket> pool_b;
  pool_b.push_back(std::move(client_b_end));
  RuntimeClient client_b(
      [&pool_b]() -> Socket {
        if (pool_b.empty()) {
          throw Error("loopback exhausted");
        }
        Socket socket = std::move(pool_b.front());
        pool_b.pop_front();
        return socket;
      },
      patient_client());

  CoordinatedAgent agent_a(job_a, client_a);
  CoordinatedAgent agent_b(job_b, client_b);

  // Both jobs run one coordinated round (barrier: both must report).
  std::thread side_b([&agent_b] {
    static_cast<void>(agent_b.run(5));
  });
  const AgentResult both = agent_a.run(5);
  side_b.join();
  EXPECT_EQ(both.fallback_epochs, 0u);
  // Two identical compute-hungry jobs: each host holds the uniform share.
  const double cap_while_shared = job_a.host_cap(0);
  EXPECT_LE(cap_while_shared, budget / 4.0 + 0.5);

  // Job b departs; its watts must fund the remaining job's next round.
  // (drop the client; the daemon sees EOF and closes the session)
  { RuntimeClient parting = std::move(client_b); }
  const AgentResult alone = agent_a.run(5);
  daemon.stop();
  serving.join();

  EXPECT_EQ(alone.fallback_epochs, 0u);
  EXPECT_GT(job_a.host_cap(0), cap_while_shared);
  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.sessions_closed, 1u);
}

/// The same protocol over TCP: one agent against an ephemeral port.
TEST(DaemonIntegrationTest, ServesOverTcp) {
  sim::Cluster cluster(2);
  std::vector<hw::NodeModel*> hosts{&cluster.node(0), &cluster.node(1)};
  sim::JobSimulation job("tcp-job", std::move(hosts), wasteful_config());

  PowerDaemon daemon(daemon_options(cluster, 2.0 * 180.0, 1));
  daemon.listen_tcp(0);
  const std::uint16_t port = daemon.tcp_port();
  ASSERT_GT(port, 0);
  std::thread serving([&daemon] { daemon.run(); });

  RuntimeClient client([port] { return connect_tcp(port); },
                       patient_client());
  CoordinatedAgent agent(job, client);
  const AgentResult result = agent.run(10);
  daemon.stop();
  serving.join();

  EXPECT_EQ(result.policies_applied, 1 + result.epochs);
  EXPECT_EQ(result.fallback_epochs, 0u);
  EXPECT_GT(daemon.stats().policies_sent, 0u);
}

/// Floors the budget cannot hold: two clients, two hosts each, report a
/// 200 W floor under a 600 W budget (Σ floors 800 W). Every round after
/// the seed breaks the binding budget, and the daemon must take the
/// keep-or-clamp branch: keep the caps in force while they fit (and answer
/// each client with them), else clamp every job onto its floors.
TEST(DaemonIntegrationTest, FloorsAboveTheBudgetKeepThenClamp) {
  const std::string path = unique_socket_path("floors");
  DaemonOptions options;
  options.system_budget_watts = 600.0;
  options.min_jobs = 2;
  options.tick_interval = milliseconds(20);
  // Adopted before the round that consumes sample sequence 2.
  options.budget_revisions = {
      {.epoch = 1, .budget_watts = 500.0, .at_epoch = 1}};
  PowerDaemon daemon(options);
  daemon.listen_unix(path);
  std::thread serving([&daemon] { daemon.run(); });

  ClientOptions client_options;
  client_options.request_timeout = milliseconds(1'000);
  const std::vector<std::string> names = {"a-floor", "b-floor"};
  std::vector<std::unique_ptr<RuntimeClient>> clients;
  for (std::size_t j = 0; j < names.size(); ++j) {
    clients.push_back(std::make_unique<RuntimeClient>(
        [&path] { return connect_unix(path); }, client_options));
  }
  // One round: both clients exchange sample `sequence` concurrently (the
  // daemon allocates once every job holds a fresh sample).
  const auto exchange_round = [&](std::uint64_t sequence) {
    std::vector<std::optional<core::PolicyMessage>> replies(names.size());
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < names.size(); ++j) {
      threads.emplace_back([&, j] {
        core::SampleMessage sample;
        sample.sequence = sequence;
        sample.job_name = names[j];
        sample.min_settable_cap_watts = 200.0;
        sample.host_observed_watts = {230.0, 230.0};
        sample.host_needed_watts = {220.0, 220.0};
        replies[j] = clients[j]->exchange(sample);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    return replies;
  };
  // The verdict counters, read once the round has run.
  const auto stats_after = [&daemon](std::size_t violations) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    DaemonStats stats = daemon.stats();
    while (stats.budget_violations < violations &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(5));
      stats = daemon.stats();
    }
    return stats;
  };
  const std::vector<double> seed_share = {150.0, 150.0};
  const std::vector<double> floors = {200.0, 200.0};

  // Round 0, the seed: the uniform share, below the floors, goes out
  // unchanged; a seed is never a violation. A missing reply reads as
  // empty caps (no ASSERT may return while the daemon thread runs).
  auto replies = exchange_round(0);
  for (const auto& reply : replies) {
    EXPECT_EQ(reply.value_or(core::PolicyMessage{}).host_caps_watts,
              seed_share);
  }
  DaemonStats stats = stats_after(0);
  EXPECT_EQ(stats.budget_violations, 0u);
  EXPECT_EQ(stats.emergency_clamps, 0u);

  // Round 1: the policy's candidate (≥ Σ floors) breaks the budget; the
  // seed caps in force (600 W) still fit, so the daemon keeps them and
  // answers each client with them, tagged with this round's sequence —
  // a resend, not an allocation.
  replies = exchange_round(1);
  for (const auto& reply : replies) {
    const core::PolicyMessage caps = reply.value_or(core::PolicyMessage{});
    EXPECT_EQ(caps.host_caps_watts, seed_share);
    EXPECT_EQ(caps.sequence, 1u);
  }
  stats = stats_after(1);
  EXPECT_EQ(stats.budget_violations, 1u);
  EXPECT_EQ(stats.emergency_clamps, 0u);
  EXPECT_EQ(stats.policies_resent, 2u);
  EXPECT_EQ(stats.allocations, 1u);

  // Round 2 first adopts the 500 W revision, and adoption clamps the
  // stored seed caps (600 W no longer fit): one adoption clamp before
  // the round runs. The clamp lifts them to the floors, since Σ floors is
  // its ceiling when the floors cannot fit. In rounds 2 and 3 neither the
  // candidate nor the caps in force (800 W) fit, so each round clamps
  // and programs every host at its floor.
  for (std::uint64_t sequence = 2; sequence <= 3; ++sequence) {
    replies = exchange_round(sequence);
    for (const auto& reply : replies) {
      const core::PolicyMessage caps = reply.value_or(core::PolicyMessage{});
      EXPECT_EQ(caps.host_caps_watts, floors);
      EXPECT_EQ(caps.budget_epoch, 1u);
    }
    stats = stats_after(sequence);
    EXPECT_EQ(stats.budget_violations, sequence);
    // One round clamp per round from 2 on; the adoption's clamp apart.
    EXPECT_EQ(stats.emergency_clamps, sequence - 1);
    EXPECT_EQ(stats.adoption_clamps, 1u);
  }
  EXPECT_EQ(stats.budget_revisions_applied, 1u);
  EXPECT_DOUBLE_EQ(stats.budget_watts, 500.0);
  EXPECT_EQ(stats.protocol_errors, 0u);
  // Every round answered: no exchange waited out its request timeout.
  for (const auto& client : clients) {
    EXPECT_EQ(client->stats().exchange_failures, 0u);
  }

  daemon.stop();
  serving.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ps::net
