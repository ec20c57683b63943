// Scheduled and pushed budget revisions on the daemon, against the
// in-memory loop: one RevisionSchedule validates and walks both sides'
// schedules, a restored or promoted daemon skips what it already adopted,
// a stale entry counts alike on both sides, budget pushes carry the
// emergency flag of the revision in force, and a pushed revision's trace
// event sits on the round clock.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/coordination.hpp"
#include "core/invariants.hpp"
#include "net/agent.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;

std::string unique_path(const std::string& tag, const std::string& suffix) {
  return "/tmp/ps-schedule-" + tag + "-" + std::to_string(::getpid()) +
         suffix;
}

kernel::WorkloadConfig hungry_config() {
  kernel::WorkloadConfig config;
  config.intensity = 32.0;
  return config;
}

/// One two-host job on its own cluster.
struct Solo {
  Solo()
      : cluster(2),
        job("solo", {&cluster.node(0), &cluster.node(1)}, hungry_config()) {}

  sim::Cluster cluster;
  sim::JobSimulation job;
};

DaemonOptions daemon_options(const sim::Cluster& cluster, double budget) {
  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = cluster.node(0).tdp();
  options.uncappable_watts = cluster.node(0).params().dram_watts;
  options.tick_interval = milliseconds(20);
  return options;
}

core::BudgetRevision revision(std::uint64_t epoch, double watts,
                              std::size_t at_epoch, bool emergency = false) {
  return {.epoch = epoch,
          .budget_watts = watts,
          .at_epoch = at_epoch,
          .emergency = emergency};
}

/// A daemon serving one agent over a Unix socket for the test's scope.
class Served {
 public:
  Served(const DaemonOptions& options, const std::string& tag)
      : path_(unique_path(tag, ".sock")), daemon_(options) {
    daemon_.listen_unix(path_);
    serving_ = std::thread([this] { daemon_.run(); });
    ClientOptions client_options;
    client_options.request_timeout = milliseconds(20'000);
    client_ = std::make_unique<RuntimeClient>(
        [path = path_] { return connect_unix(path); }, client_options);
  }
  ~Served() {
    daemon_.stop();
    serving_.join();
    std::remove(path_.c_str());
  }

  PowerDaemon& daemon() { return daemon_; }
  RuntimeClient& client() { return *client_; }

 private:
  std::string path_;
  PowerDaemon daemon_;
  std::thread serving_;
  std::unique_ptr<RuntimeClient> client_;
};

std::string rejection(const std::function<void()>& construct) {
  try {
    construct();
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "";
}

TEST(BudgetPushScheduleTest, LoopAndDaemonRejectABadScheduleAlike) {
  Solo solo;
  std::vector<sim::JobSimulation*> jobs{&solo.job};
  const double budget = 2.0 * 200.0;
  const std::vector<std::vector<core::BudgetRevision>> bad = {
      {revision(1, 380.0, 3), revision(2, 360.0, 1)},  // unsorted
      {revision(1, 0.0, 1)},                           // non-positive
  };
  for (const auto& schedule : bad) {
    const std::string loop_error = rejection([&] {
      core::CoordinationLoop loop(budget);
      static_cast<void>(loop.run_dynamic(jobs, 10, {}, schedule));
    });
    const std::string daemon_error = rejection([&] {
      DaemonOptions options = daemon_options(solo.cluster, budget);
      options.budget_revisions = schedule;
      PowerDaemon daemon(options);
    });
    EXPECT_NE(loop_error, "");
    EXPECT_EQ(loop_error, daemon_error);
  }
}

/// A stale entry (its epoch does not advance) is rejected by set_budget
/// and trips the epoch-monotonicity invariant once, in the loop's budget
/// telemetry and the daemon's stats alike.
TEST(BudgetPushScheduleTest, StaleScheduledEntryCountsAlikeOnBothSides) {
  const std::vector<core::BudgetRevision> schedule = {
      revision(2, 380.0, 1), revision(1, 360.0, 2)};
  const double budget = 2.0 * 200.0;

  core::invariants::reset();
  Solo reference;
  std::vector<sim::JobSimulation*> jobs{&reference.job};
  core::CoordinationLoop loop(budget);
  core::BudgetTelemetry telemetry;
  static_cast<void>(
      loop.run_dynamic(jobs, 20, {}, schedule, nullptr, &telemetry));
  EXPECT_EQ(telemetry.revisions_applied, 1u);
  EXPECT_EQ(telemetry.revisions_stale, 1u);
  EXPECT_EQ(core::invariants::stats().violations, 1u);

  core::invariants::reset();
  Solo distributed;
  DaemonOptions options = daemon_options(distributed.cluster, budget);
  options.budget_revisions = schedule;
  DaemonStats stats;
  {
    Served served(options, "stale");
    CoordinatedAgent agent(distributed.job, served.client());
    static_cast<void>(agent.run(20));
    stats = served.daemon().stats();
  }
  EXPECT_EQ(stats.budget_revisions_applied, telemetry.revisions_applied);
  EXPECT_EQ(stats.budget_revisions_stale, telemetry.revisions_stale);
  EXPECT_EQ(core::invariants::stats().violations, 1u);
  core::invariants::reset();
}

/// State a previous incarnation persisted after adopting the schedule's
/// first two entries.
DaemonSnapshot adopted_state() {
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = 2.0 * 190.0;
  snapshot.budget_epoch = 2;
  snapshot.launch_barrier_met = true;
  snapshot.allocations = 1;
  snapshot.jobs.push_back({.name = "solo",
                           .sequence = 0,
                           .caps_watts = {190.0, 190.0},
                           .gpu_caps_watts = {}});
  return snapshot;
}

/// Both boots over persisted state — a disk snapshot on restart, the
/// replicated state a promoted standby hands its daemon as
/// initial_state — pass over the entries that state already adopted;
/// only the newer one is adopted, and nothing counts as stale.
TEST(BudgetPushScheduleTest, RestoredAndPromotedDaemonsSkipAdoptedEntries) {
  const std::vector<core::BudgetRevision> schedule = {
      revision(1, 2.0 * 195.0, 0), revision(2, 2.0 * 190.0, 0),
      revision(3, 2.0 * 185.0, 1)};
  const std::string snapshot_path = unique_path("restore", ".snap");
  save_snapshot(snapshot_path, adopted_state());

  for (const bool promoted : {false, true}) {
    SCOPED_TRACE(promoted ? "promoted standby" : "snapshot restart");
    core::invariants::reset();
    Solo solo;
    DaemonOptions options = daemon_options(solo.cluster, 2.0 * 200.0);
    options.budget_revisions = schedule;
    if (promoted) {
      options.initial_state = adopted_state();
    } else {
      options.snapshot_path = snapshot_path;
    }
    DaemonStats stats;
    {
      Served served(options, promoted ? "promoted" : "restored");
      EXPECT_EQ(served.daemon().stats().budget_epoch, 2u);
      CoordinatedAgent agent(solo.job, served.client());
      static_cast<void>(agent.run(15));
      stats = served.daemon().stats();
    }
    EXPECT_EQ(stats.jobs_restored, 1u);
    EXPECT_EQ(stats.budget_revisions_applied, 1u);
    EXPECT_EQ(stats.budget_revisions_stale, 0u);
    EXPECT_EQ(stats.budget_epoch, 3u);
    EXPECT_DOUBLE_EQ(stats.budget_watts, schedule[2].budget_watts);
    EXPECT_EQ(core::invariants::stats().violations, 0u);
  }
  std::remove(snapshot_path.c_str());
  core::invariants::reset();
}

TEST(BudgetPushScheduleTest, PushCarriesTheEmergencyFlagInForce) {
  Solo solo;
  DaemonOptions options = daemon_options(solo.cluster, 2.0 * 200.0);
  options.budget_revisions = {revision(1, 2.0 * 180.0, 1, /*emergency=*/true)};
  Served served(options, "emergency");
  CoordinatedAgent agent(solo.job, served.client());
  static_cast<void>(agent.run(15));

  ASSERT_TRUE(served.client().last_budget().has_value());
  EXPECT_EQ(served.client().last_budget()->epoch, 1u);
  EXPECT_TRUE(served.client().last_budget()->emergency);
}

/// An emergency revision outlives its daemon: the snapshot keeps the
/// flag, and the daemon restarted over it resyncs a new client with the
/// emergency budget message the first incarnation pushed.
TEST(BudgetPushScheduleTest, RestartedDaemonResyncsTheEmergencyFlag) {
  const std::string snapshot_path = unique_path("emergency", ".snap");
  std::remove(snapshot_path.c_str());
  {
    Solo solo;
    DaemonOptions options = daemon_options(solo.cluster, 2.0 * 200.0);
    options.budget_revisions = {
        revision(1, 2.0 * 180.0, 1, /*emergency=*/true)};
    options.snapshot_path = snapshot_path;
    Served served(options, "emergency-first");
    CoordinatedAgent agent(solo.job, served.client());
    static_cast<void>(agent.run(15));
    ASSERT_TRUE(served.client().last_budget().has_value());
    ASSERT_TRUE(served.client().last_budget()->emergency);
  }
  const std::optional<DaemonSnapshot> persisted =
      load_snapshot(snapshot_path);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(persisted->budget_epoch, 1u);
  EXPECT_TRUE(persisted->budget_emergency);

  Solo solo;
  DaemonOptions options = daemon_options(solo.cluster, 2.0 * 200.0);
  options.snapshot_path = snapshot_path;
  {
    Served served(options, "emergency-restarted");
    CoordinatedAgent agent(solo.job, served.client());
    static_cast<void>(agent.run(5));
    ASSERT_TRUE(served.client().last_budget().has_value());
    EXPECT_EQ(served.client().last_budget()->epoch, 1u);
    EXPECT_DOUBLE_EQ(served.client().last_budget()->budget_watts,
                     2.0 * 180.0);
    EXPECT_TRUE(served.client().last_budget()->emergency);
  }
  std::remove(snapshot_path.c_str());
}

/// A revise_budget push carries no schedule position (at_epoch 0); its
/// "revision" event is stamped with the rounds completed when it was
/// adopted, so it sorts after the rounds that ran before it.
TEST(BudgetPushScheduleTest, PushedRevisionIsStampedOnTheRoundClock) {
  Solo solo;
  obs::TraceSink sink;
  DaemonOptions options = daemon_options(solo.cluster, 2.0 * 200.0);
  options.obs.trace = &sink;
  Served served(options, "stamp");
  CoordinatedAgent agent(solo.job, served.client());
  static_cast<void>(agent.run(10));  // the bootstrap round plus two
  const std::size_t rounds = served.daemon().stats().allocations;
  ASSERT_EQ(rounds, 3u);

  served.daemon().revise_budget(revision(1, 2.0 * 180.0, 0));
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5'000);
  while (served.daemon().stats().budget_revisions_applied == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_EQ(served.daemon().stats().budget_revisions_applied, 1u);
  static_cast<void>(agent.run(5));

  std::uint64_t last_round_tick = 0;
  std::size_t revisions = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.category != obs::cat::kDaemon) {
      continue;
    }
    if (event.name == "round") {
      last_round_tick = event.tick;
    } else if (event.name == "revision") {
      ++revisions;
      EXPECT_EQ(event.tick, rounds);
      EXPECT_GT(event.tick, last_round_tick);
    }
  }
  EXPECT_EQ(revisions, 1u);
}

}  // namespace
}  // namespace ps::net
