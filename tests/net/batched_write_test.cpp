// Regression coverage for the disconnect-during-batched-write audit: a
// session that dies while the round's coalesced frames are being flushed
// must have its watts reclaimed exactly once — not zero times (a leak
// that starves every later round) and not twice (a phantom surplus the
// next allocation would overspend). Also covers the rack-session variant
// of the same audit: evicting one job bound through a rack session must
// unbind that job without closing the rack session the surviving jobs
// still depend on, and a rack session must list each job it binds once,
// so a close puts every job into grace and expiry reclaims each once —
// also when a whole rack's jobs expire together as one eviction batch. A
// rack frame whose job count lies past its payload is a protocol error
// on that link only. The last cases pin the shared session layer's own
// semantics: read dispatch order, the would-block write path, and the
// idle sweep sparing the aggregator's parent link.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/endpoint.hpp"
#include "core/invariants.hpp"
#include "core/wire.hpp"
#include "net/aggregator.hpp"
#include "net/daemon.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::string unique_path(const std::string& tag) {
  return "/tmp/ps-batch-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

/// Server-side decorator that watches the inbound bytes for a marker job
/// name; once the marker has been seen and the shared kill switch is on,
/// every write to that peer reports a closed pipe. This is exactly the
/// shape of the production failure: the peer died between the allocation
/// computing its caps and the batch flush writing them.
class VictimTransport final : public Transport {
 public:
  VictimTransport(std::unique_ptr<Transport> inner, std::string marker,
                  std::atomic<bool>& fail_writes)
      : inner_(std::move(inner)),
        marker_(std::move(marker)),
        fail_writes_(fail_writes) {}

  [[nodiscard]] int fd() const noexcept override { return inner_->fd(); }
  [[nodiscard]] bool valid() const noexcept override {
    return inner_->valid();
  }
  void close() noexcept override { inner_->close(); }

  IoResult read_some(char* out, std::size_t max_bytes) override {
    const IoResult result = inner_->read_some(out, max_bytes);
    if (result.status == IoStatus::kOk && !is_victim_) {
      seen_.append(out, result.bytes);
      if (seen_.find(marker_) != std::string::npos) {
        is_victim_ = true;
        seen_.clear();
      }
    }
    return result;
  }

  IoResult write_some(std::string_view bytes) override {
    if (is_victim_ && fail_writes_.load(std::memory_order_acquire)) {
      return {IoStatus::kClosed, 0};
    }
    return inner_->write_some(bytes);
  }

  [[nodiscard]] bool wait_readable(milliseconds timeout) override {
    return inner_->wait_readable(timeout);
  }
  [[nodiscard]] bool wait_writable(milliseconds timeout) override {
    return inner_->wait_writable(timeout);
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::string marker_;
  std::atomic<bool>& fail_writes_;
  bool is_victim_ = false;
  std::string seen_;
};

/// Minimal scripted client: raw socket + frame codec, no RuntimeClient
/// retry machinery — the test controls every byte.
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
    ASSERT_TRUE(socket.wait_writable(milliseconds(2000)));
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
    char buffer[4096];
    const IoResult result = socket.read_some(buffer, sizeof(buffer));
    if (result.status == IoStatus::kClosed) {
      return std::nullopt;
    }
    if (result.status == IoStatus::kOk) {
      decoder.feed({buffer, result.bytes});
    }
  }
}

core::SampleMessage make_sample(const std::string& job,
                                std::uint64_t sequence) {
  core::SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = job;
  sample.min_settable_cap_watts = 80.0;
  sample.host_observed_watts = {200.0, 200.0};
  sample.host_needed_watts = {240.0, 240.0};
  return sample;
}

bool wait_for(const std::function<bool()>& predicate, milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(milliseconds(5));
  }
  return predicate();
}

TEST(BatchedWriteTest, DisconnectDuringBatchedFlushReclaimsWattsExactlyOnce) {
  const double budget = 4.0 * 210.0;  // 840 W over 4 hosts
  std::atomic<bool> fail_victim_writes{false};

  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = 2;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(100);
  options.heartbeat_timeout = milliseconds(60'000);
  options.transport_wrapper =
      [&fail_victim_writes](std::unique_ptr<Transport> inner) {
        return std::make_unique<VictimTransport>(
            std::move(inner), "a-victim", fail_victim_writes);
      };
  PowerDaemon daemon(options);
  const std::string socket_path = unique_path("flush");
  daemon.listen_unix(socket_path);
  std::thread serving([&daemon] { daemon.run(); });

  // The victim's connection is doomed before it registers: its first
  // (and only) outbound frame is the bootstrap policy the batch flush
  // writes — so the session dies with that frame queued, after the
  // allocation already stored its caps.
  fail_victim_writes.store(true, std::memory_order_release);

  Socket victim = connect_unix(socket_path);
  FrameDecoder victim_decoder;
  send_payload(victim, serialize(make_sample("a-victim", 0),
                                 core::WireFidelity::kExact));

  Socket survivor = connect_unix(socket_path);
  FrameDecoder survivor_decoder;
  send_payload(survivor, serialize(make_sample("b-survivor", 0),
                                   core::WireFidelity::kExact));

  // The survivor's bootstrap reply proves the round completed even
  // though the batch flush lost a peer mid-write.
  std::optional<std::string> reply =
      read_payload(survivor, survivor_decoder, milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  const core::PolicyMessage bootstrap = core::parse_policy_message(*reply);
  EXPECT_EQ(bootstrap.job_name, "b-survivor");
  ASSERT_EQ(bootstrap.host_caps_watts.size(), 2u);
  // Uniform launch share: budget / total hosts, per host.
  EXPECT_DOUBLE_EQ(bootstrap.host_caps_watts[0], budget / 4.0);
  EXPECT_DOUBLE_EQ(bootstrap.host_caps_watts[1], budget / 4.0);

  // The dead flush must have closed the victim's session immediately —
  // not left it half-alive until the idle scan.
  ASSERT_TRUE(wait_for(
      [&daemon] { return daemon.stats().sessions_closed >= 1; },
      milliseconds(5000)));
  EXPECT_EQ(daemon.stats().jobs_evicted, 0u);  // grace is running

  // Grace expiry: the victim's seat is reclaimed, worth exactly its
  // stored bootstrap share (2 hosts x 210 W), exactly once.
  ASSERT_TRUE(wait_for(
      [&daemon] { return daemon.stats().jobs_evicted == 1; },
      milliseconds(5000)));
  const DaemonStats at_eviction = daemon.stats();
  EXPECT_DOUBLE_EQ(at_eviction.watts_reclaimed, 2.0 * (budget / 4.0));

  // Exactly once: ticks keep running, nothing reclaims the same watts
  // again (the double-free would show up right here).
  std::this_thread::sleep_for(milliseconds(200));
  const DaemonStats later = daemon.stats();
  EXPECT_EQ(later.jobs_evicted, 1u);
  EXPECT_DOUBLE_EQ(later.watts_reclaimed, at_eviction.watts_reclaimed);

  // The freed watts are usable: the survivor's next round may now
  // exceed its old uniform share, and never the budget.
  send_payload(survivor, serialize(make_sample("b-survivor", 1),
                                   core::WireFidelity::kExact));
  reply = read_payload(survivor, survivor_decoder, milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  const core::PolicyMessage after = core::parse_policy_message(*reply);
  EXPECT_EQ(after.sequence, 1u);
  double total = 0.0;
  for (const double cap : after.host_caps_watts) {
    total += cap;
  }
  EXPECT_GT(total, 2.0 * (budget / 4.0));
  EXPECT_LE(total, budget + 1e-6);

  victim.close();
  survivor.close();
  daemon.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

TEST(BatchedWriteTest, RackJobEvictionUnbindsWithoutClosingRackSession) {
  // The rack-session variant of the audit: one aggregator session
  // carries jobs a and b. When b stalls past the heartbeat, evicting it
  // must surgically unbind b from the rack session — closing the shared
  // session would take the healthy job down with it (the original bug).
  const double budget = 4.0 * 210.0;

  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = 2;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(60'000);  // no disconnect here
  options.heartbeat_timeout = milliseconds(100);
  options.root_mode = true;
  PowerDaemon root(options);
  const std::string socket_path = unique_path("rack");
  root.listen_unix(socket_path);
  std::thread serving([&root] { root.run(); });

  Socket rack = connect_unix(socket_path);
  FrameDecoder decoder;

  // Round 0: both jobs bootstrap through one batched rack frame.
  core::RackSampleMessage round0;
  round0.rack = "r0";
  round0.round = 0;
  round0.samples = {make_sample("a-alive", 0), make_sample("b-stalled", 0)};
  send_payload(rack, serialize(round0, core::WireFidelity::kExact));

  std::optional<std::string> reply =
      read_payload(rack, decoder, milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  const core::RackPolicyMessage bootstrap =
      core::parse_rack_policy_message(*reply);
  ASSERT_EQ(bootstrap.policies.size(), 2u);
  EXPECT_DOUBLE_EQ(bootstrap.rack_budget_watts, budget);

  // b goes silent; a keeps sampling through the same rack session. Its
  // fresh samples wait on b until the heartbeat scan evicts b.
  std::uint64_t sequence = 1;
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (root.stats().jobs_evicted == 0 && steady_clock::now() < deadline) {
    core::RackSampleMessage frame;
    frame.rack = "r0";
    frame.round = sequence;
    frame.samples = {make_sample("a-alive", sequence)};
    send_payload(rack, serialize(frame, core::WireFidelity::kExact));
    ++sequence;
    std::this_thread::sleep_for(milliseconds(20));
  }
  const DaemonStats after_eviction = root.stats();
  ASSERT_EQ(after_eviction.jobs_evicted, 1u);
  // b held its bootstrap share; the eviction returned it, once.
  EXPECT_DOUBLE_EQ(after_eviction.watts_reclaimed, 2.0 * (budget / 4.0));
  // The audited property: the shared rack session survived the eviction.
  EXPECT_EQ(after_eviction.rack_sessions, 1u);
  EXPECT_EQ(after_eviction.sessions_closed, 0u);

  // And it still works: the next a-only frame completes a round whose
  // batched reply names only the surviving job.
  core::RackSampleMessage frame;
  frame.rack = "r0";
  frame.round = sequence;
  frame.samples = {make_sample("a-alive", sequence)};
  send_payload(rack, serialize(frame, core::WireFidelity::kExact));

  core::RackPolicyMessage final_policy;
  const auto read_deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < read_deadline) {
    reply = read_payload(rack, decoder, milliseconds(1000));
    if (!reply.has_value()) {
      continue;
    }
    final_policy = core::parse_rack_policy_message(*reply);
    if (final_policy.policies.size() == 1) {
      break;
    }
  }
  ASSERT_EQ(final_policy.policies.size(), 1u);
  EXPECT_EQ(final_policy.policies[0].job_name, "a-alive");
  double total = 0.0;
  for (const double cap : final_policy.policies[0].host_caps_watts) {
    total += cap;
  }
  EXPECT_DOUBLE_EQ(final_policy.rack_budget_watts, total);
  EXPECT_LE(total, budget + 1e-6);

  rack.close();
  root.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

/// Sends one rack frame carrying `jobs` at `sequence` and returns the
/// batched reply, which must name every job.
core::RackPolicyMessage rack_round(Socket& rack, FrameDecoder& decoder,
                                   const std::vector<std::string>& jobs,
                                   std::uint64_t sequence) {
  core::RackSampleMessage frame;
  frame.rack = "r0";
  frame.round = sequence;
  for (const std::string& job : jobs) {
    frame.samples.push_back(make_sample(job, sequence));
  }
  send_payload(rack, serialize(frame, core::WireFidelity::kExact));
  const std::optional<std::string> reply =
      read_payload(rack, decoder, milliseconds(5000));
  if (!reply.has_value()) {
    ADD_FAILURE() << "no reply to rack round " << sequence;
    return {};
  }
  core::RackPolicyMessage policy = core::parse_rack_policy_message(*reply);
  EXPECT_EQ(policy.policies.size(), jobs.size()) << "round " << sequence;
  return policy;
}

TEST(BatchedWriteTest, RackListsEachJobOnceThroughGraceRebindAndExpiry) {
  // A rack session lists each job it binds exactly once: re-sent jobs
  // are not listed again, a new job is, and the list is what a close
  // puts into grace. Grace, re-bind on reconnect and expiry must then
  // each touch every job exactly once.
  constexpr std::size_t kJobs = 6;
  DaemonOptions options;
  options.system_budget_watts = 2.0 * 210.0 * (kJobs + 1);
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = kJobs;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(500);
  options.heartbeat_timeout = milliseconds(60'000);
  options.root_mode = true;
  PowerDaemon root(options);
  const std::string socket_path = unique_path("membership");
  root.listen_unix(socket_path);
  std::thread serving([&root] { root.run(); });

  std::vector<std::string> jobs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    jobs.push_back("job-" + std::to_string(j));
  }
  {
    Socket rack = connect_unix(socket_path);
    FrameDecoder decoder;
    for (std::uint64_t round = 0; round < 3; ++round) {
      rack_round(rack, decoder, jobs, round);
      EXPECT_EQ(root.stats().rack_jobs, kJobs) << "round " << round;
    }
    jobs.push_back("job-new");  // rack frames are name-ordered; it sorts last
    rack_round(rack, decoder, jobs, 3);
    EXPECT_EQ(root.stats().rack_jobs, kJobs + 1);
    rack.close();
  }
  EXPECT_TRUE(wait_for([&] { return root.stats().rack_sessions == 0; },
                       milliseconds(5000)));
  DaemonStats stats = root.stats();
  EXPECT_EQ(stats.rack_jobs, 0u);
  EXPECT_EQ(stats.jobs_evicted, 0u);
  EXPECT_EQ(stats.sessions_rehydrated, 0u);

  // Reconnect within grace: every job of the closed rack re-binds.
  double stored_watts = 0.0;
  {
    Socket rack = connect_unix(socket_path);
    FrameDecoder decoder;
    const core::RackPolicyMessage reply = rack_round(rack, decoder, jobs, 4);
    for (const core::PolicyMessage& policy : reply.policies) {
      for (const double cap : policy.host_caps_watts) {
        stored_watts += cap;
      }
    }
    stats = root.stats();
    EXPECT_EQ(stats.sessions_rehydrated, kJobs + 1);
    EXPECT_EQ(stats.rack_jobs, kJobs + 1);
    EXPECT_EQ(stats.jobs_evicted, 0u);
    rack.close();
  }

  // Close again and let grace expire: each job is evicted once, and the
  // reclaimed watts are exactly the caps the rack last held.
  EXPECT_TRUE(
      wait_for([&] { return root.stats().jobs_evicted >= kJobs + 1; },
               milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(100));  // ~10 more ticks
  stats = root.stats();
  EXPECT_EQ(stats.jobs_evicted, kJobs + 1);
  EXPECT_EQ(stats.rack_jobs, 0u);
  EXPECT_NEAR(stats.watts_reclaimed, stored_watts, 1e-6);
  EXPECT_GT(stored_watts, 0.0);

  root.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

TEST(BatchedWriteTest, MassGraceExpiryReclaimsEveryJobOnceInOneBatch) {
  // Every job of a closed rack enters grace at the same instant, so one
  // tick expires them together and evicts them as one batch: each job is
  // reclaimed exactly once, the reclaimed watts are exactly the caps the
  // rack last held, and the batch's watt-conservation check holds.
  constexpr std::size_t kJobs = 64;
  DaemonOptions options;
  options.system_budget_watts = 2.0 * 210.0 * kJobs;
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = kJobs;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(300);
  options.heartbeat_timeout = milliseconds(60'000);
  options.root_mode = true;
  PowerDaemon root(options);
  const std::string socket_path = unique_path("mass-expiry");
  root.listen_unix(socket_path);
  std::thread serving([&root] { root.run(); });
  const std::uint64_t violations_before =
      core::invariants::stats().violations;

  std::vector<std::string> jobs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    char name[16];
    std::snprintf(name, sizeof(name), "job-%03zu", j);
    jobs.emplace_back(name);  // zero-padded: name order is index order
  }
  double last_caps_watts = 0.0;
  {
    Socket rack = connect_unix(socket_path);
    FrameDecoder decoder;
    rack_round(rack, decoder, jobs, 0);
    const core::RackPolicyMessage last = rack_round(rack, decoder, jobs, 1);
    for (const core::PolicyMessage& policy : last.policies) {
      for (const double cap : policy.host_caps_watts) {
        last_caps_watts += cap;
      }
    }
    rack.close();
  }
  EXPECT_GT(last_caps_watts, 0.0);

  EXPECT_TRUE(wait_for([&] { return root.stats().jobs_evicted >= kJobs; },
                       milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(100));  // ~10 more ticks
  const DaemonStats stats = root.stats();
  EXPECT_EQ(stats.jobs_evicted, kJobs);
  EXPECT_EQ(stats.rack_jobs, 0u);
  EXPECT_NEAR(stats.watts_reclaimed, last_caps_watts,
              1e-9 * last_caps_watts);
  EXPECT_EQ(core::invariants::stats().violations, violations_before)
      << core::invariants::last_violation();

  root.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

TEST(BatchedWriteTest, RootSurvivesARackFrameClaimingTwoToTheSixtyTwoJobs) {
  // A well-framed rack-sample frame whose job count (2^62) no payload
  // could hold is a protocol error on that link — refused before any
  // allocation, never an exception that escapes the daemon's loop — and
  // the root goes on serving an honest rack.
  DaemonOptions options;
  options.system_budget_watts = 4.0 * 210.0;
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = 2;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(60'000);
  options.heartbeat_timeout = milliseconds(60'000);
  options.root_mode = true;
  PowerDaemon root(options);
  const std::string socket_path = unique_path("hostile-count");
  root.listen_unix(socket_path);
  std::thread serving([&root] { root.run(); });

  {
    core::wire::Writer hostile(core::wire::Tag::kRackSample);
    hostile.string("r-hostile");
    hostile.varint(1);
    hostile.varint(std::uint64_t{1} << 62);
    // One honest sample body follows the lying count.
    const std::string sample = serialize(make_sample("a", 1));
    Socket link = connect_unix(socket_path);
    send_payload(link, std::move(hostile).take() + sample.substr(1));
    // The daemon closes the link: EOF, not a reply.
    FrameDecoder decoder;
    EXPECT_FALSE(read_payload(link, decoder, milliseconds(5000)).has_value());
  }
  EXPECT_TRUE(wait_for([&] { return root.stats().protocol_errors == 1; },
                       milliseconds(5000)));

  Socket rack = connect_unix(socket_path);
  FrameDecoder decoder;
  const core::RackPolicyMessage reply =
      rack_round(rack, decoder, {"a", "b"}, 0);
  EXPECT_EQ(reply.rack, "r0");
  EXPECT_DOUBLE_EQ(reply.rack_budget_watts, options.system_budget_watts);
  const DaemonStats stats = root.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.rack_sessions, 1u);

  rack.close();
  root.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

/// A table over one loopback session that logs what its owner is told:
/// "frame:<payload>" per dispatched frame, "close:<cause>" per close.
struct RecordingTable {
  EventLoop loop;
  std::vector<std::string> events;
  SessionTable table{
      loop,
      {.on_frame =
           [this](int, NetSession&, const std::string& payload) {
             events.push_back("frame:" + payload);
           },
       .on_close =
           [this](int, NetSession&, CloseCause cause) {
             events.push_back(cause == CloseCause::kProtocolError
                                  ? "close:protocol"
                                  : "close:other");
           }}};

  /// Runs loop cycles until `done` holds or the deadline passes.
  bool run_until(const std::function<bool()>& done) {
    const auto deadline = steady_clock::now() + milliseconds(2000);
    while (!done() && steady_clock::now() < deadline) {
      loop.run_once(milliseconds(10));
    }
    return done();
  }
};

/// Reports the first `stalls` writes as would-block, then passes through.
class StallingTransport final : public Transport {
 public:
  StallingTransport(std::unique_ptr<Transport> inner, int stalls)
      : inner_(std::move(inner)), stalls_(stalls) {}

  [[nodiscard]] int fd() const noexcept override { return inner_->fd(); }
  [[nodiscard]] bool valid() const noexcept override {
    return inner_->valid();
  }
  void close() noexcept override { inner_->close(); }
  IoResult read_some(char* out, std::size_t max_bytes) override {
    return inner_->read_some(out, max_bytes);
  }
  IoResult write_some(std::string_view bytes) override {
    if (stalls_ > 0) {
      --stalls_;
      return {IoStatus::kWouldBlock, 0};
    }
    return inner_->write_some(bytes);
  }
  [[nodiscard]] bool wait_readable(milliseconds timeout) override {
    return inner_->wait_readable(timeout);
  }
  [[nodiscard]] bool wait_writable(milliseconds timeout) override {
    return inner_->wait_writable(timeout);
  }

 private:
  std::unique_ptr<Transport> inner_;
  int stalls_;
};

TEST(BatchedWriteTest, GoodFrameBeforeCorruptOneIsDeliveredThenClosed) {
  RecordingTable recorder;
  auto [server, peer] = loopback_pair();
  const int fd = recorder.table.add(make_transport(std::move(server)));

  // Both frames leave in one write, so the table reads them in one chunk.
  std::string corrupt = encode_frame("second");
  corrupt.back() ^= 0x01;  // the payload no longer matches its CRC
  const std::string both = encode_frame("first") + corrupt;
  ASSERT_EQ(peer.write_some(both).bytes, both.size());

  ASSERT_TRUE(
      recorder.run_until([&] { return !recorder.table.contains(fd); }));
  EXPECT_EQ(recorder.events,
            (std::vector<std::string>{"frame:first", "close:protocol"}));

  // The close reached the peer as EOF.
  char byte = 0;
  ASSERT_TRUE(peer.wait_readable(milliseconds(2000)));
  EXPECT_EQ(peer.read_some(&byte, 1).status, IoStatus::kClosed);
}

TEST(BatchedWriteTest, WouldBlockWriteRearmsPollOutAndDrainsOnReadiness) {
  RecordingTable recorder;
  auto [server, peer] = loopback_pair();
  const int fd = recorder.table.add(std::make_unique<StallingTransport>(
      make_transport(std::move(server)), 1));

  NetSession* session = recorder.table.find(fd);
  ASSERT_NE(session, nullptr);
  recorder.table.queue_frame(fd, *session, encode_frame("caps"));
  // The write would block: the frame waits in the outbox, nothing left.
  EXPECT_FALSE(session->outbox.empty());
  EXPECT_FALSE(peer.wait_readable(milliseconds(0)));

  // The peer never writes, so only POLLOUT readiness can drain it.
  ASSERT_TRUE(recorder.run_until([&] {
    const NetSession* live = recorder.table.find(fd);
    return live != nullptr && live->outbox.empty();
  }));
  FrameDecoder decoder;
  const std::optional<std::string> payload =
      read_payload(peer, decoder, milliseconds(2000));
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "caps");
  EXPECT_TRUE(recorder.events.empty());  // no frame in, no close
}

TEST(BatchedWriteTest, IdleSweepSparesTheAggregatorParentLink) {
  auto [parent_end, root_end] = loopback_pair();
  std::optional<Socket> uplink(std::move(parent_end));
  AggregatorOptions options;
  options.rack = "r0";
  options.tick_interval = milliseconds(10);
  options.idle_timeout = milliseconds(100);
  options.parent_connector = [&uplink]() -> std::unique_ptr<Transport> {
    if (!uplink) {
      return nullptr;  // one link only: a reconnect would find nothing
    }
    std::unique_ptr<Transport> link = make_transport(std::move(*uplink));
    uplink.reset();
    return link;
  };
  AggregatorDaemon aggregator(options);
  auto [client_end, client] = loopback_pair();
  aggregator.adopt(std::move(client_end));
  std::thread serving([&aggregator] { aggregator.run(); });

  // The silent client is swept; the equally silent parent link is not.
  // (No ASSERT may return while the aggregator thread runs.)
  EXPECT_TRUE(wait_for(
      [&aggregator] { return aggregator.stats().sessions_timed_out == 1; },
      milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(150));  // more sweeps pass
  const AggregatorStats stats = aggregator.stats();
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.parent_connects, 1u);
  EXPECT_EQ(stats.parent_disconnects, 0u);
  char byte = 0;
  EXPECT_EQ(root_end.read_some(&byte, 1).status, IoStatus::kWouldBlock);

  aggregator.stop();
  serving.join();
}

}  // namespace
}  // namespace ps::net
