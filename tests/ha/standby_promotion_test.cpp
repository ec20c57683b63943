// Replicator fencing and StandbyDaemon promotion: the lease protocol
// between a primary's Replicator and its standby — engagement, the
// lease/2 fence window, deterministic promotion after a full silent
// lease, the never-promote-unsynced rule, and the standby's refusal of
// stale-fence or corrupted updates.
#include "ha/replicator.hpp"
#include "ha/standby.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/endpoint.hpp"
#include "ha/replication.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "util/error.hpp"
#include "../wire_bytes.hpp"

namespace ps::ha {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/ps-ha-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

net::DaemonSnapshot make_state(std::uint64_t fence) {
  net::DaemonSnapshot state;
  state.system_budget_watts = 3680.0;
  state.budget_epoch = 0;
  state.fence_epoch = fence;
  state.launch_barrier_met = true;
  state.allocations = 17;
  net::SnapshotJob a;
  a.name = "a-wasteful";
  a.sequence = 17;
  a.caps_watts = {215.5, 216.25};
  net::SnapshotJob b;
  b.name = "b-hungry";
  b.sequence = 17;
  b.caps_watts = {230.0, 230.0};
  state.jobs = {a, b};
  return state;
}

/// Polls `predicate` until it holds or `deadline_ms` elapses.
bool eventually(const std::function<bool()>& predicate,
                int deadline_ms = 5'000) {
  const auto deadline = Clock::now() + milliseconds(deadline_ms);
  while (Clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(milliseconds(5));
  }
  return predicate();
}

/// A hand-rolled standby endpoint for driving the Replicator directly.
struct FakeStandby {
  net::Socket socket;
  net::FrameDecoder decoder;

  explicit FakeStandby(std::uint16_t port) : socket(net::connect_tcp(port)) {}

  void send(const std::string& payload) {
    const std::string frame = net::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const net::IoResult r =
          socket.write_some(std::string_view(frame).substr(sent));
      if (r.status == net::IoStatus::kOk) {
        sent += r.bytes;
        continue;
      }
      ASSERT_NE(r.status, net::IoStatus::kClosed);
      ASSERT_TRUE(socket.wait_writable(milliseconds(1'000)));
    }
  }

  /// Next complete frame, or nullopt after `deadline_ms`.
  std::optional<std::string> next_frame(int deadline_ms = 2'000) {
    const auto deadline = Clock::now() + milliseconds(deadline_ms);
    char buffer[4096];
    for (;;) {
      if (auto payload = decoder.next()) {
        return payload;
      }
      const auto remaining =
          std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
      if (remaining.count() <= 0 || !socket.wait_readable(remaining)) {
        return std::nullopt;
      }
      const net::IoResult r = socket.read_some(buffer, sizeof(buffer));
      if (r.status == net::IoStatus::kClosed) {
        return std::nullopt;
      }
      if (r.status == net::IoStatus::kOk) {
        decoder.feed(std::string_view(buffer, r.bytes));
      }
    }
  }
};

TEST(ReplicatorTest, FencingEngagesOnFirstAckAndReleasesWhenAcksResume) {
  ReplicatorOptions options;
  options.lease = milliseconds(160);
  Replicator replicator(options);
  replicator.listen_tcp(0);
  replicator.start();
  replicator.publish(make_state(0));

  // Before any standby exists the primary must never fence itself.
  std::this_thread::sleep_for(milliseconds(200));
  EXPECT_FALSE(replicator.should_fence());
  EXPECT_FALSE(replicator.stats().engaged);

  FakeStandby standby(replicator.tcp_port());
  standby.send(serialize(HaSyncRequest{0}));
  const auto update_payload = standby.next_frame();
  ASSERT_TRUE(update_payload.has_value());
  ASSERT_EQ(ha_message_kind(*update_payload), HaMessageKind::kUpdate);
  const HaStateUpdate update = parse_state_update(*update_payload);
  EXPECT_EQ(update.rounds, 17u);

  standby.send(serialize(HaAck{update.rounds}));
  ASSERT_TRUE(eventually(
      [&] { return replicator.stats().acks_received >= 1; }));
  EXPECT_TRUE(replicator.stats().engaged);
  EXPECT_FALSE(replicator.should_fence());

  // Silence past lease/2: the primary assumes a successor may exist.
  ASSERT_TRUE(eventually([&] { return replicator.should_fence(); }, 2'000));

  // Acks resume (a healed partition): the fence releases.
  while (auto payload = standby.next_frame(50)) {
    // Drain queued heartbeats so the ack below is the freshest traffic.
  }
  standby.send(serialize(HaAck{update.rounds}));
  ASSERT_TRUE(eventually([&] { return !replicator.should_fence(); }, 2'000));
  EXPECT_EQ(replicator.stats().last_ack_rounds, 17u);
  replicator.stop();
}

TEST(StandbyDaemonTest, PromotesAfterALeaseOfSilenceAndServesReplicatedCaps) {
  ReplicatorOptions replicator_options;
  replicator_options.lease = milliseconds(150);
  auto replicator = std::make_unique<Replicator>(replicator_options);
  replicator->listen_tcp(0);
  replicator->start();
  replicator->publish(make_state(0));
  const std::uint16_t repl_port = replicator->tcp_port();

  const std::string standby_path = unique_socket_path("promote");
  StandbyOptions options;
  options.primary = [repl_port] {
    return net::make_transport(net::connect_tcp(repl_port));
  };
  options.daemon.system_budget_watts = 3680.0;
  options.daemon.min_jobs = 2;
  options.daemon.tick_interval = milliseconds(20);
  options.lease = milliseconds(150);
  options.dial_retry = milliseconds(10);
  options.bind = [&standby_path](net::PowerDaemon& daemon) {
    daemon.listen_unix(standby_path);
  };
  StandbyDaemon standby(options);
  std::thread runner([&standby] { standby.run(); });

  ASSERT_TRUE(eventually([&] { return standby.synced(); }));
  EXPECT_FALSE(standby.promoted());
  EXPECT_EQ(standby.stats().rounds, 17u);

  // Kill the primary's replicator: one lease later the standby serves.
  replicator.reset();
  ASSERT_TRUE(eventually([&] { return standby.promoted(); }));
  EXPECT_EQ(standby.stats().fence_epoch, 1u);

  // A failed-over client asking for an already-answered sequence gets the
  // replicated caps back, stamped with the successor's fence.
  net::ClientOptions client_options;
  client_options.request_timeout = milliseconds(2'000);
  net::RuntimeClient client(
      net::RuntimeClient::Connector(
          [&standby_path] { return net::connect_unix(standby_path); }),
      client_options);
  core::SampleMessage sample;
  sample.sequence = 17;
  sample.job_name = "a-wasteful";
  sample.min_settable_cap_watts = 100.0;
  sample.host_observed_watts = {150.0, 160.0};
  sample.host_needed_watts = {140.0, 155.0};
  const auto policy = client.exchange(sample);
  ASSERT_TRUE(policy.has_value());
  EXPECT_EQ(policy->sequence, 17u);
  EXPECT_EQ(policy->fence_epoch, 1u);
  EXPECT_EQ(policy->host_caps_watts, (std::vector<double>{215.5, 216.25}));
  EXPECT_EQ(client.fence_epoch(), 1u);

  ASSERT_NE(standby.daemon(), nullptr);
  EXPECT_EQ(standby.daemon()->stats().fence_epoch, 1u);
  EXPECT_EQ(standby.daemon()->stats().jobs_restored, 2u);
  EXPECT_EQ(standby.daemon()->stats().launch_barriers, 0u);

  standby.stop();
  runner.join();
}

TEST(StandbyDaemonTest, PromotedStandbyResyncsTheEmergencyFlag) {
  // The primary had adopted an emergency revision: the replicated state
  // carries its epoch and flag, and the promoted standby's first budget
  // message to a failed-over client must say emergency too.
  net::DaemonSnapshot state = make_state(0);
  state.system_budget_watts = 3000.0;
  state.budget_epoch = 1;
  state.budget_emergency = true;
  ReplicatorOptions replicator_options;
  replicator_options.lease = milliseconds(150);
  auto replicator = std::make_unique<Replicator>(replicator_options);
  replicator->listen_tcp(0);
  replicator->start();
  replicator->publish(state);
  const std::uint16_t repl_port = replicator->tcp_port();

  const std::string standby_path = unique_socket_path("emergency");
  StandbyOptions options;
  options.primary = [repl_port] {
    return net::make_transport(net::connect_tcp(repl_port));
  };
  options.daemon.system_budget_watts = 3680.0;
  options.daemon.min_jobs = 2;
  options.daemon.tick_interval = milliseconds(20);
  options.lease = milliseconds(150);
  options.dial_retry = milliseconds(10);
  options.bind = [&standby_path](net::PowerDaemon& daemon) {
    daemon.listen_unix(standby_path);
  };
  StandbyDaemon standby(options);
  std::thread runner([&standby] { standby.run(); });
  ASSERT_TRUE(eventually([&] { return standby.synced(); }));
  replicator.reset();
  ASSERT_TRUE(eventually([&] { return standby.promoted(); }));

  net::ClientOptions client_options;
  client_options.request_timeout = milliseconds(2'000);
  net::RuntimeClient client(
      net::RuntimeClient::Connector(
          [&standby_path] { return net::connect_unix(standby_path); }),
      client_options);
  core::SampleMessage sample;
  sample.sequence = 17;
  sample.job_name = "a-wasteful";
  sample.min_settable_cap_watts = 100.0;
  sample.host_observed_watts = {150.0, 160.0};
  sample.host_needed_watts = {140.0, 155.0};
  ASSERT_TRUE(client.exchange(sample).has_value());
  ASSERT_TRUE(client.last_budget().has_value());
  EXPECT_EQ(client.last_budget()->epoch, 1u);
  EXPECT_DOUBLE_EQ(client.last_budget()->budget_watts, 3000.0);
  EXPECT_TRUE(client.last_budget()->emergency);

  standby.stop();
  runner.join();
}

TEST(StandbyDaemonTest, UnsyncedStandbyNeverPromotes) {
  StandbyOptions options;
  options.primary = []() -> std::unique_ptr<net::Transport> {
    throw Error("primary never existed");
  };
  options.daemon.system_budget_watts = 1000.0;
  options.lease = milliseconds(80);
  options.dial_retry = milliseconds(10);
  StandbyDaemon standby(options);
  std::thread runner([&standby] { standby.run(); });

  std::this_thread::sleep_for(milliseconds(320));  // four silent leases
  EXPECT_FALSE(standby.promoted());
  EXPECT_FALSE(standby.synced());
  EXPECT_GE(standby.stats().dial_failures, 1u);

  standby.stop();
  runner.join();
}

TEST(StandbyDaemonTest, RejectsStaleFenceAndCorruptUpdates) {
  std::uint16_t port = 0;
  net::Listener listener = net::listen_tcp(0, &port);

  StandbyOptions options;
  options.primary = [port] {
    return net::make_transport(net::connect_tcp(port));
  };
  options.daemon.system_budget_watts = 3680.0;
  options.lease = milliseconds(10'000);  // promotion out of the picture
  options.dial_retry = milliseconds(10);
  StandbyDaemon standby(options);
  std::thread runner([&standby] { standby.run(); });

  ASSERT_TRUE(listener.valid());
  std::optional<net::Socket> accepted;
  ASSERT_TRUE(eventually([&] {
    accepted = listener.accept();
    return accepted.has_value();
  }));
  net::Socket primary = std::move(*accepted);

  auto send = [&primary](const std::string& payload) {
    const std::string frame = net::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const net::IoResult r =
          primary.write_some(std::string_view(frame).substr(sent));
      if (r.status == net::IoStatus::kOk) {
        sent += r.bytes;
        continue;
      }
      ASSERT_NE(r.status, net::IoStatus::kClosed);
      ASSERT_TRUE(primary.wait_writable(milliseconds(1'000)));
    }
  };

  // A fence-2 update syncs the standby.
  HaStateUpdate fresh;
  fresh.state = make_state(2);
  fresh.fence_epoch = 2;
  fresh.rounds = fresh.state.allocations;
  send(serialize(fresh));
  ASSERT_TRUE(eventually([&] { return standby.synced(); }));
  EXPECT_EQ(standby.stats().fence_epoch, 2u);
  EXPECT_EQ(standby.stats().updates_applied, 1u);

  // A fence-1 update is a zombie's state: refused, nothing rolls back.
  HaStateUpdate stale;
  stale.state = make_state(1);
  stale.fence_epoch = 1;
  stale.rounds = stale.state.allocations;
  send(serialize(stale));
  ASSERT_TRUE(
      eventually([&] { return standby.stats().updates_rejected >= 1; }));
  EXPECT_EQ(standby.stats().fence_epoch, 2u);
  EXPECT_EQ(standby.stats().updates_applied, 1u);

  // A corrupted embedded snapshot (checksum mismatch) is refused too.
  HaStateUpdate corrupt;
  corrupt.state = make_state(2);
  corrupt.fence_epoch = 2;
  corrupt.rounds = corrupt.state.allocations;
  const std::string payload = serialize(corrupt);
  const std::size_t pos = test::find_f64(payload, 215.5);
  ASSERT_NE(pos, std::string::npos);
  send(test::flip(payload, pos));
  ASSERT_TRUE(
      eventually([&] { return standby.stats().updates_rejected >= 2; }));
  EXPECT_EQ(standby.stats().updates_applied, 1u);
  EXPECT_EQ(standby.stats().rounds, 17u);

  standby.stop();
  runner.join();
}

}  // namespace
}  // namespace ps::ha
