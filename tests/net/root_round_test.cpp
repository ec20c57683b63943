// The root daemon's round walks its job table once. Rack binding follows
// the table with a one-step hint (the record after the one bound last), the
// round gathers every seat and latched sample by pointer in one pass, and
// rack replies take each job's message by move once the trace is out. These
// cases pin what that walk must not change:
//   - interleaved racks, where every hint misses, get exactly the caps a
//     flat daemon computes for the same samples, and the "daemon" trace
//     records those caps; a frame in reversed name order never reaches the
//     binder (the rack parser rejects it on that link alone);
//   - a job that first appears mid-frame and a rack job evicted between
//     rounds keep rack_jobs, the rack session's job list and the caps exact;
//   - a replayed rack frame moves samples_received, samples_stale and
//     policies_resent by exactly its job count, and the counts are in
//     stats() by the time the resend is written.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/endpoint.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Per job: the caps it was sent in one round.
using RoundCaps = std::map<std::string, std::vector<double>>;

std::string unique_path(const std::string& tag) {
  return "/tmp/ps-root-round-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

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

/// The next frame's payload, or nullopt on timeout or a closed link.
std::optional<std::string> read_payload(Socket& socket, FrameDecoder& decoder,
                                        milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (true) {
    if (std::optional<std::string> frame = decoder.next()) {
      return frame;
    }
    const auto remaining = std::chrono::duration_cast<milliseconds>(
        deadline - steady_clock::now());
    if (remaining <= milliseconds(0) || !socket.wait_readable(remaining)) {
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

std::string job_name(std::size_t index) {
  return "job-" + std::to_string(index);
}

/// Job `index`'s telemetry in round `round`: two hosts whose needs differ
/// per job and per round, so a sample bound to the wrong record moves the
/// caps.
core::SampleMessage sample_for(std::size_t index, std::uint64_t round) {
  core::SampleMessage sample;
  sample.sequence = round;
  sample.job_name = job_name(index);
  sample.min_settable_cap_watts = 80.0;
  const double needed = 140.0 + 13.0 * static_cast<double>(index) +
                        7.0 * static_cast<double>(round);
  sample.host_needed_watts = {needed, needed - 30.0};
  sample.host_observed_watts = {needed + 10.0, needed - 5.0};
  return sample;
}

DaemonOptions daemon_options(std::size_t jobs, bool root_mode) {
  DaemonOptions options;
  options.system_budget_watts = 2.0 * 185.0 * static_cast<double>(jobs);
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = jobs;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(300);
  options.heartbeat_timeout = milliseconds(500);
  options.root_mode = root_mode;
  return options;
}

/// A daemon served on its own thread over a Unix socket.
class Served {
 public:
  explicit Served(const DaemonOptions& options, const std::string& tag)
      : daemon_(options), path_(unique_path(tag)) {
    daemon_.listen_unix(path_);
    thread_ = std::thread([this] { daemon_.run(); });
  }
  ~Served() {
    daemon_.stop();
    thread_.join();
    std::remove(path_.c_str());
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  PowerDaemon& daemon() { return daemon_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  PowerDaemon daemon_;
  std::string path_;
  std::thread thread_;
};

/// One raw client connection per job to a flat daemon.
class FlatFleet {
 public:
  explicit FlatFleet(Served& served) : served_(served) {}

  /// Sends every sample. Jobs new to the fleet register first, so the
  /// round cannot fire before they count.
  void send(const std::vector<core::SampleMessage>& samples) {
    const std::size_t before = served_.daemon().stats().samples_received;
    std::vector<bool> sent(samples.size(), false);
    for (std::size_t j = 0; j < samples.size(); ++j) {
      if (!links_.contains(samples[j].job_name)) {
        Link& link = links_[samples[j].job_name];
        link.socket = connect_unix(served_.path());
        send_payload(link.socket, serialize(samples[j]));
        sent[j] = true;
      }
    }
    const auto registered =
        static_cast<std::size_t>(std::count(sent.begin(), sent.end(), true));
    EXPECT_TRUE(wait_for(
        [&] {
          return served_.daemon().stats().samples_received ==
                 before + registered;
        },
        milliseconds(5000)));
    for (std::size_t j = 0; j < samples.size(); ++j) {
      if (!sent[j]) {
        send_payload(links_[samples[j].job_name].socket,
                     serialize(samples[j]));
      }
    }
  }

  /// Each sender's caps for the samples last sent.
  RoundCaps collect(const std::vector<core::SampleMessage>& samples) {
    RoundCaps caps;
    for (const core::SampleMessage& sample : samples) {
      Link& link = links_[sample.job_name];
      const std::optional<std::string> reply =
          read_payload(link.socket, link.decoder, milliseconds(5000));
      if (!reply.has_value()) {
        ADD_FAILURE() << sample.job_name << ": no policy";
        continue;
      }
      const core::PolicyMessage policy = core::parse_policy_message(*reply);
      EXPECT_EQ(policy.sequence, sample.sequence);
      caps[policy.job_name] = policy.host_caps_watts;
    }
    return caps;
  }

 private:
  struct Link {
    Socket socket;
    FrameDecoder decoder;
  };
  Served& served_;
  std::map<std::string, Link> links_;
};

/// One aggregator link to a root daemon.
struct RackLink {
  RackLink(std::string name, const std::string& path)
      : rack(std::move(name)), socket(connect_unix(path)) {}

  std::string rack;
  Socket socket;
  FrameDecoder decoder;

  void send(const std::vector<core::SampleMessage>& samples) {
    core::RackSampleMessage frame;
    frame.rack = rack;
    for (const core::SampleMessage& sample : samples) {
      frame.round = std::max(frame.round, sample.sequence);
    }
    frame.samples = samples;
    send_payload(socket, serialize(frame));
  }

  /// The next rack-policy frame (its caps added to `caps`), or nullopt.
  std::optional<core::RackPolicyMessage> reply(RoundCaps& caps) {
    const std::optional<std::string> payload =
        read_payload(socket, decoder, milliseconds(5000));
    if (!payload.has_value()) {
      return std::nullopt;
    }
    core::RackPolicyMessage policy = core::parse_rack_policy_message(*payload);
    for (const core::PolicyMessage& job : policy.policies) {
      caps[job.job_name] = job.host_caps_watts;
    }
    return policy;
  }
};

std::vector<core::SampleMessage> samples_for(
    const std::vector<std::size_t>& jobs, std::uint64_t round) {
  std::vector<core::SampleMessage> samples;
  for (const std::size_t index : jobs) {
    samples.push_back(sample_for(index, round));
  }
  return samples;
}

/// Each round's caps as the root's "daemon" trace records them.
std::vector<RoundCaps> traced_caps(const obs::TraceSink& sink) {
  std::vector<RoundCaps> rounds;
  for (const obs::ReplayedAllocation& step :
       obs::replay_allocations(sink.events())) {
    RoundCaps caps;
    for (const obs::ReplayedJobCaps& job : step.jobs) {
      caps[job.job] = job.caps_watts;
    }
    rounds.push_back(std::move(caps));
  }
  return rounds;
}

TEST(RootRoundTest, InterleavedRacksMissEveryHintAndMatchTheFlatDaemon) {
  // Even jobs on one link, odd jobs on the other: in the root's name
  // order the record after each bound job belongs to the other rack, so
  // every hint misses and every bind falls back to the table search.
  constexpr std::size_t kJobs = 6;
  constexpr std::uint64_t kRounds = 4;
  obs::TraceSink sink;
  DaemonOptions root_options = daemon_options(kJobs, true);
  root_options.obs.trace = &sink;
  Served root(root_options, "interleaved");
  Served flat(daemon_options(kJobs, false), "interleaved-flat");
  FlatFleet fleet(flat);

  RackLink even("even", root.path());
  RackLink odd("odd", root.path());
  std::vector<RoundCaps> rack_rounds;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::vector<core::SampleMessage> all =
        samples_for({0, 1, 2, 3, 4, 5}, round);
    even.send(samples_for({0, 2, 4}, round));
    odd.send(samples_for({1, 3, 5}, round));
    fleet.send(all);
    RoundCaps caps;
    ASSERT_TRUE(even.reply(caps).has_value()) << "round " << round;
    ASSERT_TRUE(odd.reply(caps).has_value()) << "round " << round;
    ASSERT_EQ(caps.size(), kJobs);
    EXPECT_EQ(caps, fleet.collect(all)) << "round " << round;
    rack_rounds.push_back(std::move(caps));
  }
  // The caps went out as the trace recorded them: every message was
  // traced before the rack replies took it.
  EXPECT_EQ(traced_caps(sink), rack_rounds);

  // A reversed frame is a protocol error on its own link: no job of it
  // binds, and the racks' next round is unchanged.
  {
    RackLink reversed("reversed", root.path());
    core::RackSampleMessage frame;
    frame.rack = reversed.rack;
    frame.round = kRounds;
    frame.samples = samples_for({9, 8, 7}, kRounds);
    send_payload(reversed.socket, serialize(frame));
    RoundCaps none;
    EXPECT_FALSE(reversed.reply(none).has_value());
    EXPECT_TRUE(wait_for(
        [&] { return root.daemon().stats().protocol_errors == 1; },
        milliseconds(5000)));
  }
  const std::vector<core::SampleMessage> all =
      samples_for({0, 1, 2, 3, 4, 5}, kRounds);
  even.send(samples_for({0, 2, 4}, kRounds));
  odd.send(samples_for({1, 3, 5}, kRounds));
  fleet.send(all);
  RoundCaps caps;
  ASSERT_TRUE(even.reply(caps).has_value());
  ASSERT_TRUE(odd.reply(caps).has_value());
  EXPECT_EQ(caps, fleet.collect(all));

  const DaemonStats stats = root.daemon().stats();
  EXPECT_EQ(stats.rack_sessions, 2u);
  EXPECT_EQ(stats.rack_jobs, kJobs);
  EXPECT_EQ(stats.samples_received, kJobs * (kRounds + 1));
  EXPECT_EQ(stats.samples_stale, 0u);
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(RootRoundTest, MidFrameJoinAndRackEvictionKeepTheRackExact) {
  // Round 0 seats jobs 0, 2 and 4; job 1 first appears mid-frame in
  // round 1; job 4 falls silent after round 1 and is evicted by the
  // heartbeat before round 2 allocates. A flat daemon fed the same
  // samples (job 4's client connected but silent) must agree on every
  // cap, and the rack session must list exactly the jobs it carries.
  Served root(daemon_options(3, true), "membership");
  Served flat(daemon_options(3, false), "membership-flat");
  FlatFleet fleet(flat);
  RackLink rack("r0", root.path());

  const std::vector<std::vector<std::size_t>> membership = {
      {0, 2, 4}, {0, 1, 2, 4}, {0, 1, 2}, {0, 1, 2}};
  const std::vector<std::size_t> rack_jobs = {3, 4, 3, 3};
  for (std::uint64_t round = 0; round < membership.size(); ++round) {
    // Both daemons hear the round at once, so their heartbeat clocks run
    // alike.
    const std::vector<core::SampleMessage> samples =
        samples_for(membership[round], round);
    rack.send(samples);
    fleet.send(samples);
    RoundCaps caps;
    const std::optional<core::RackPolicyMessage> reply = rack.reply(caps);
    ASSERT_TRUE(reply.has_value()) << "round " << round;
    ASSERT_EQ(reply->policies.size(), samples.size());
    EXPECT_EQ(caps, fleet.collect(samples)) << "round " << round;
    const DaemonStats stats = root.daemon().stats();
    EXPECT_EQ(stats.rack_jobs, rack_jobs[round]) << "round " << round;
    EXPECT_EQ(stats.jobs_evicted, round >= 2 ? 1u : 0u) << "round " << round;
  }
  EXPECT_EQ(flat.daemon().stats().jobs_evicted, 1u);

  // Closing the rack releases exactly the jobs its session lists: the
  // count returns to zero (a stale entry would underflow it), and grace
  // expiry evicts each listed job once.
  rack.socket.close();
  EXPECT_TRUE(wait_for([&] { return root.daemon().stats().rack_sessions == 0; },
                       milliseconds(5000)));
  EXPECT_EQ(root.daemon().stats().rack_jobs, 0u);
  EXPECT_TRUE(wait_for([&] { return root.daemon().stats().jobs_evicted == 4; },
                       milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(root.daemon().stats().jobs_evicted, 4u);
}

/// Records the daemon's stats() at every write to the peer, so a test can
/// see what a client reading that write could find counted.
class StatsAtWrite final : public Transport {
 public:
  StatsAtWrite(std::unique_ptr<Transport> inner,
               std::atomic<PowerDaemon*>& daemon, std::mutex& mutex,
               std::optional<DaemonStats>& last)
      : inner_(std::move(inner)), daemon_(daemon), mutex_(mutex), last_(last) {}

  [[nodiscard]] int fd() const noexcept override { return inner_->fd(); }
  [[nodiscard]] bool valid() const noexcept override {
    return inner_->valid();
  }
  void close() noexcept override { inner_->close(); }
  IoResult read_some(char* out, std::size_t max_bytes) override {
    return inner_->read_some(out, max_bytes);
  }
  IoResult write_some(std::string_view bytes) override {
    const DaemonStats stats = daemon_.load()->stats();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last_ = stats;
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
  std::atomic<PowerDaemon*>& daemon_;
  std::mutex& mutex_;
  std::optional<DaemonStats>& last_;
};

TEST(RootRoundTest, ReplayedRackFrameIsCountedBeforeItsResend) {
  constexpr std::size_t kJobs = 4;
  std::atomic<PowerDaemon*> daemon{nullptr};
  std::mutex mutex;
  std::optional<DaemonStats> at_write;
  DaemonOptions options = daemon_options(kJobs, true);
  options.transport_wrapper = [&](std::unique_ptr<Transport> inner) {
    return std::make_unique<StatsAtWrite>(std::move(inner), daemon, mutex,
                                          at_write);
  };
  Served root(options, "replay");
  daemon.store(&root.daemon());
  RackLink rack("r0", root.path());

  const std::vector<std::size_t> jobs = {0, 1, 2, 3};
  RoundCaps answered;
  for (std::uint64_t round = 0; round < 2; ++round) {
    rack.send(samples_for(jobs, round));
    answered.clear();
    ASSERT_TRUE(rack.reply(answered).has_value()) << "round " << round;
  }
  const DaemonStats before = root.daemon().stats();

  // The round-1 frame again: every sequence is answered, so each job is
  // sent its stored caps in one batched resend.
  rack.send(samples_for(jobs, 1));
  RoundCaps resent;
  const std::optional<core::RackPolicyMessage> resend = rack.reply(resent);
  ASSERT_TRUE(resend.has_value());
  EXPECT_EQ(resend->round, 1u);
  EXPECT_EQ(resent, answered);

  const auto expect_counted = [&](const DaemonStats& stats,
                                  const char* when) {
    EXPECT_EQ(stats.samples_received, before.samples_received + kJobs)
        << when;
    EXPECT_EQ(stats.samples_stale, before.samples_stale + kJobs) << when;
    EXPECT_EQ(stats.policies_resent, before.policies_resent + kJobs) << when;
    EXPECT_EQ(stats.rack_policies_resent, before.rack_policies_resent + 1)
        << when;
    EXPECT_EQ(stats.rack_frames_received, before.rack_frames_received + 1)
        << when;
    EXPECT_EQ(stats.allocations, before.allocations) << when;
  };
  expect_counted(root.daemon().stats(), "when the resend was read");
  const std::lock_guard<std::mutex> lock(mutex);
  ASSERT_TRUE(at_write.has_value());
  expect_counted(*at_write, "when the resend was written");
}

}  // namespace
}  // namespace ps::net
