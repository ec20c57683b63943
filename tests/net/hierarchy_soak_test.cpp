// CI-bounded hierarchy soak: one root + 8 rack aggregators driven by
// hundreds of lightweight scripted clients (raw sockets + the frame
// codec — no thread-per-client, no RuntimeClient machinery), exactly the
// shape bench/ext_hierarchy_scale runs at 10k. Asserts round completion
// through the whole tree, zero watt leakage across a mass disconnect
// (watts reclaimed == the dead jobs' last granted caps, to the double),
// and sane per-level round-latency histograms from src/obs.
//
// PS_HIER_SOAK_CLIENTS overrides the client count (multiple of 8) for
// manual larger runs; the default stays CI-sized.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/endpoint.hpp"
#include "core/invariants.hpp"
#include "net/aggregator.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr std::size_t kRacks = 8;

/// The root's heartbeat timeout. ThreadSanitizer slows every daemon loop
/// by an order of magnitude, enough for 200 ms to evict live racks'
/// jobs mid-round, so instrumented builds wait ten times longer. The
/// mass-disconnect phase waits up to 30 s for the heartbeat scan either
/// way.
#if defined(__SANITIZE_THREAD__)
constexpr milliseconds kHeartbeatTimeout{2'000};
#else
constexpr milliseconds kHeartbeatTimeout{200};
#endif

std::size_t soak_clients() {
  if (const char* env = std::getenv("PS_HIER_SOAK_CLIENTS")) {
    const std::size_t requested = std::strtoull(env, nullptr, 10);
    if (requested >= kRacks) {
      return requested - requested % kRacks;
    }
  }
  return 256;
}

std::string unique_path(const std::string& tag) {
  return "/tmp/ps-soak-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

std::string job_name(std::size_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "job-%04zu", index);
  return buffer;
}

core::SampleMessage make_sample(const std::string& job,
                                std::uint64_t sequence) {
  core::SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = job;
  sample.min_settable_cap_watts = 80.0;
  sample.host_observed_watts = {205.0};
  sample.host_needed_watts = {225.0};
  return sample;
}

/// Runs `cleanup` on every exit from the enclosing scope, including the
/// early return of a failed ASSERT.
class ScopeExit {
 public:
  explicit ScopeExit(std::function<void()> cleanup)
      : cleanup_(std::move(cleanup)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { cleanup_(); }

 private:
  std::function<void()> cleanup_;
};

/// One scripted client: a connected socket, its decoder, and the last
/// caps it was granted. All I/O is driven by the test thread.
struct ScriptedClient {
  Socket socket;
  FrameDecoder decoder;
  std::string job;
  double last_caps_sum = 0.0;
};

void send_payload(Socket& socket, const std::string& payload) {
  const std::string frame = encode_frame(payload);
  std::string_view rest = frame;
  while (!rest.empty()) {
    const IoResult result = socket.write_some(rest);
    if (result.status == IoStatus::kOk) {
      rest.remove_prefix(result.bytes);
      continue;
    }
    ASSERT_EQ(result.status, IoStatus::kWouldBlock) << "peer closed";
    ASSERT_TRUE(socket.wait_writable(milliseconds(5000)));
  }
}

std::optional<std::string> read_payload(Socket& socket, FrameDecoder& decoder,
                                        milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (true) {
    if (std::optional<std::string> frame = decoder.next()) {
      return frame;
    }
    const auto remaining = std::chrono::duration_cast<milliseconds>(
        deadline - steady_clock::now());
    if (remaining <= milliseconds(0) ||
        !socket.wait_readable(remaining)) {
      return std::nullopt;
    }
    char buffer[8192];
    const IoResult result = socket.read_some(buffer, sizeof(buffer));
    if (result.status == IoStatus::kClosed) {
      return std::nullopt;
    }
    if (result.status == IoStatus::kOk) {
      decoder.feed({buffer, result.bytes});
    }
  }
}

TEST(HierarchySoakTest, TreeSurvivesScaleAndMassDisconnectWithoutLeaking) {
  const std::size_t total_clients = soak_clients();
  const std::size_t per_rack = total_clients / kRacks;
  const std::size_t rounds = 3;
  const double budget = static_cast<double>(total_clients) * 210.0;

  const core::invariants::Mode previous_mode = core::invariants::mode();
  core::invariants::set_mode(core::invariants::Mode::kFatal);
  core::invariants::reset();
  const ScopeExit restore_invariants([previous_mode] {
    core::invariants::reset();
    core::invariants::set_mode(previous_mode);
  });

  obs::MetricsRegistry root_metrics;
  obs::MetricsRegistry rack_metrics;  // shared by all 8 aggregators

  DaemonOptions root_options;
  root_options.system_budget_watts = budget;
  root_options.node_tdp_watts = 256.0;
  root_options.uncappable_watts = 16.0;
  root_options.min_jobs = total_clients;
  root_options.tick_interval = milliseconds(10);
  root_options.reclaim_timeout = milliseconds(60'000);
  root_options.heartbeat_timeout = kHeartbeatTimeout;
  root_options.root_mode = true;
  root_options.obs.metrics = &root_metrics;
  PowerDaemon root(root_options);
  const std::string root_path = unique_path("root");
  std::thread root_thread;
  std::vector<std::unique_ptr<AggregatorDaemon>> aggregators;
  std::vector<std::thread> aggregator_threads;
  std::vector<std::string> rack_paths;
  // Stops and joins every daemon thread however the body exits: after a
  // failed ASSERT a still-joinable std::thread would abort the binary
  // instead of letting gtest report the failure. Idempotent.
  const auto stop_daemons = [&] {
    for (auto& aggregator : aggregators) {
      aggregator->stop();
    }
    for (std::thread& thread : aggregator_threads) {
      if (thread.joinable()) {
        thread.join();
      }
    }
    root.stop();
    if (root_thread.joinable()) {
      root_thread.join();
    }
    std::remove(root_path.c_str());
    for (const std::string& path : rack_paths) {
      std::remove(path.c_str());
    }
  };
  const ScopeExit stop_on_exit(stop_daemons);
  root.listen_unix(root_path);
  root_thread = std::thread([&root] { root.run(); });

  for (std::size_t r = 0; r < kRacks; ++r) {
    AggregatorOptions options;
    options.rack = "rack" + std::to_string(r);
    options.min_jobs = per_rack;
    options.tick_interval = milliseconds(10);
    options.reclaim_timeout = milliseconds(60'000);
    options.parent_connector = [root_path]() -> std::unique_ptr<Transport> {
      try {
        return make_transport(connect_unix(root_path));
      } catch (const Error&) {
        return nullptr;
      }
    };
    options.obs.metrics = &rack_metrics;
    aggregators.push_back(std::make_unique<AggregatorDaemon>(options));
    rack_paths.push_back(unique_path("rack" + std::to_string(r)));
    aggregators.back()->listen_unix(rack_paths.back());
    aggregator_threads.emplace_back(
        [&aggregator = *aggregators.back()] { aggregator.run(); });
  }

  // Client i lives on rack i / per_rack; names are zero-padded so the
  // root's name-keyed round order is the construction order.
  std::vector<ScriptedClient> clients(total_clients);
  for (std::size_t i = 0; i < total_clients; ++i) {
    clients[i].job = job_name(i);
    clients[i].socket = connect_unix(rack_paths[i / per_rack]);
  }

  const auto drive_round = [&](std::size_t first, std::size_t count,
                               std::uint64_t sequence,
                               milliseconds reply_timeout) {
    for (std::size_t i = first; i < first + count; ++i) {
      send_payload(clients[i].socket,
                   serialize(make_sample(clients[i].job, sequence),
                             core::WireFidelity::kExact));
    }
    for (std::size_t i = first; i < first + count; ++i) {
      const std::optional<std::string> reply = read_payload(
          clients[i].socket, clients[i].decoder, reply_timeout);
      ASSERT_TRUE(reply.has_value())
          << clients[i].job << " got no reply to sequence " << sequence;
      const core::PolicyMessage policy = core::parse_policy_message(*reply);
      ASSERT_EQ(policy.job_name, clients[i].job);
      ASSERT_EQ(policy.sequence, sequence);
      clients[i].last_caps_sum = 0.0;
      for (const double cap : policy.host_caps_watts) {
        clients[i].last_caps_sum += cap;
      }
    }
  };

  // Phase 1: every client completes `rounds` full tree round-trips.
  for (std::uint64_t sequence = 0; sequence < rounds; ++sequence) {
    drive_round(0, total_clients, sequence, milliseconds(30'000));
  }

  {
    const DaemonStats mid = root.stats();
    EXPECT_EQ(mid.rack_sessions, kRacks);
    EXPECT_GE(mid.allocations, rounds);
    EXPECT_EQ(mid.budget_violations, 0u);
    EXPECT_EQ(mid.jobs_evicted, 0u);
    double granted = 0.0;
    for (const ScriptedClient& client : clients) {
      granted += client.last_caps_sum;
    }
    EXPECT_LE(granted, budget + 1e-6);
  }

  // Phase 2: mass disconnect — racks 1..7 (7/8 of the fleet) vanish at
  // once. Rack 0 keeps sampling; its fresh samples are what lets the
  // root's heartbeat scan prove the silent jobs dead. Every dead job's
  // watts must come back, each exactly once.
  double dead_caps_sum = 0.0;
  for (std::size_t i = per_rack; i < total_clients; ++i) {
    dead_caps_sum += clients[i].last_caps_sum;
    clients[i].socket.close();
  }

  drive_round(0, per_rack, rounds, milliseconds(30'000));

  const std::size_t dead_jobs = total_clients - per_rack;
  const auto deadline = steady_clock::now() + milliseconds(30'000);
  while (root.stats().jobs_evicted < dead_jobs &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(20));
  }
  const DaemonStats after = root.stats();
  ASSERT_EQ(after.jobs_evicted, dead_jobs);
  // The leak check: reclaimed == the sum of the caps the dead jobs held,
  // bit-for-bit as their clients last read them off the wire.
  EXPECT_DOUBLE_EQ(after.watts_reclaimed, dead_caps_sum);
  EXPECT_EQ(after.budget_violations, 0u);

  // The freed watts are re-allocatable: one more rack-0 round and the
  // survivors' grant grows (each host was demand-bound before).
  drive_round(0, per_rack, rounds + 1, milliseconds(30'000));
  double surviving = 0.0;
  for (std::size_t i = 0; i < per_rack; ++i) {
    surviving += clients[i].last_caps_sum;
  }
  EXPECT_LE(surviving, budget + 1e-6);
  EXPECT_GT(surviving, 0.0);

  for (std::size_t i = 0; i < per_rack; ++i) {
    clients[i].socket.close();
  }
  stop_daemons();

  // Per-level round-latency histograms (the src/obs satellite): the root
  // observed every completed allocation round; the aggregators observed
  // every forward->grant round-trip. Quantiles must be well-formed and
  // inside the instrumented bucket range.
  const obs::MetricsSnapshot root_snap = root_metrics.snapshot();
  bool found_root_latency = false;
  for (const auto& [name, histogram] : root_snap.histograms) {
    if (name == "net.daemon.round_seconds") {
      found_root_latency = true;
      EXPECT_GE(histogram.total(), rounds);
      EXPECT_EQ(histogram.invalid, 0u);
      const double p50 = obs::histogram_quantile(histogram, 0.50);
      const double p99 = obs::histogram_quantile(histogram, 0.99);
      EXPECT_GT(p50, 0.0);
      EXPECT_LE(p50, p99);
      EXPECT_LE(p99, 5.0);  // the top instrumented bucket edge
      std::cout << "[ root round latency ] p50=" << p50 << "s p99=" << p99
                << "s over " << histogram.total() << " rounds\n";
    }
  }
  EXPECT_TRUE(found_root_latency);

  const obs::MetricsSnapshot rack_snap = rack_metrics.snapshot();
  bool found_rack_latency = false;
  for (const auto& [name, histogram] : rack_snap.histograms) {
    if (name == "net.aggregator.round_seconds") {
      found_rack_latency = true;
      // 8 aggregators x >= `rounds` grants each (shared registry sums).
      EXPECT_GE(histogram.total(), kRacks * rounds);
      EXPECT_EQ(histogram.invalid, 0u);
      const double p99 = obs::histogram_quantile(histogram, 0.99);
      EXPECT_GT(p99, 0.0);
      EXPECT_LE(p99, 5.0);
    }
  }
  EXPECT_TRUE(found_rack_latency);

  // Fan-out gauges reflect the tree's shape.
  for (const auto& [name, value] : root_snap.gauges) {
    if (name == "net.daemon.racks") {
      EXPECT_GT(value, 0.0);
    }
  }

  EXPECT_EQ(core::invariants::stats().violations, 0u);
}

}  // namespace
}  // namespace ps::net
