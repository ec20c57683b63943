// root_fleet: a root-mode net::PowerDaemon on its own thread, driven over
// three Unix sockets by this thread playing three rack aggregators that
// carry ~7,500 single-host jobs between them (a few latency-critical or
// best-effort).
//
// A pass starts the daemon, connects the racks and crosses the launch
// barrier with the bootstrap round (set-up), then runs kRounds control
// rounds (the units): encode the three rack-sample frames, send them, read
// and parse the three rack-policy frames. A deterministic budget schedule
// from core::make_budget_schedule puts a brownout and its restore into a
// minority of the rounds; the budget pushes that follow are read and
// obeyed. Every round is checked: the caps fit the enforced budget, no
// cap is below its floor, and every policy carries the round's sequence
// and budget epoch. On traced passes the daemon's allocation is replayed
// in-process on the same samples and must match the received caps bit
// for bit on steady rounds.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/budget_governor.hpp"
#include "core/degradation.hpp"
#include "core/endpoint.hpp"
#include "core/policy.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ps;
using std::chrono::milliseconds;

constexpr std::size_t kRacks = 3;
constexpr std::size_t kJobsPerRack = 2500;
constexpr std::size_t kRounds = 25;
/// Brownout (to 80% of the budget) adopted from round 9, restored from
/// round 13: rounds consume sample sequence e + 1 for schedule epoch e.
constexpr std::size_t kBrownoutEpoch = 8;
constexpr std::size_t kRestoreEpoch = 12;
constexpr double kNodeTdpWatts = 256.0;
constexpr double kUncappableWatts = 16.0;
constexpr double kFloorWatts = 136.0;
constexpr double kBudgetPerJobWatts = 185.0;
constexpr milliseconds kIoTimeout{20'000};
constexpr double kSumSlack = 1e-12;

std::string job_name(std::size_t index) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "job-%05zu", index);
  return buffer;
}

/// The fleet a seed describes: each job's steady draw and class.
struct Fleet {
  std::vector<core::RackSampleMessage> racks;  ///< Name-ordered jobs.
  std::vector<double> base_needed_watts;       ///< Global job order.
  std::uint64_t seed = 0;
  double budget_watts = 0.0;
  std::vector<core::BudgetRevision> schedule;
};

Fleet make_fleet(std::uint64_t seed) {
  Fleet fleet;
  fleet.seed = seed;
  util::Rng rng(seed);
  for (std::size_t r = 0; r < kRacks; ++r) {
    core::RackSampleMessage rack;
    rack.rack = "rack" + std::to_string(r);
    for (std::size_t j = 0; j < kJobsPerRack; ++j) {
      const std::size_t index = r * kJobsPerRack + j;
      core::SampleMessage sample;
      sample.job_name = job_name(index);
      sample.min_settable_cap_watts = kFloorWatts;
      sample.host_observed_watts = {0.0};
      sample.host_needed_watts = {0.0};
      const double draw = rng.uniform();
      if (draw < 0.01) {
        sample.sla_class = sim::SlaClass::kLatencyCritical;
      } else if (draw < 0.03) {
        sample.sla_class = sim::SlaClass::kBestEffort;
      }
      fleet.base_needed_watts.push_back(rng.uniform(150.0, 250.0));
      rack.samples.push_back(std::move(sample));
    }
    fleet.racks.push_back(std::move(rack));
  }
  fleet.budget_watts = kBudgetPerJobWatts *
                       static_cast<double>(kRacks * kJobsPerRack);
  std::vector<double> signal(kRounds + 1, fleet.budget_watts);
  for (std::size_t e = kBrownoutEpoch; e < kRestoreEpoch; ++e) {
    signal[e] = 0.8 * fleet.budget_watts;
  }
  fleet.schedule = core::make_budget_schedule(fleet.budget_watts, signal);
  return fleet;
}

/// Fills every sample with round `round`'s telemetry: the job's steady
/// draw with a deterministic per-round wobble.
void stage_round(Fleet& fleet, std::uint64_t round) {
  util::Rng rng = util::Rng(fleet.seed).fork(0x70756e64 + round);
  std::size_t index = 0;
  for (core::RackSampleMessage& rack : fleet.racks) {
    rack.round = round;
    for (core::SampleMessage& sample : rack.samples) {
      sample.sequence = round;
      const double needed = std::min(
          kNodeTdpWatts,
          fleet.base_needed_watts[index++] * rng.uniform(0.95, 1.05));
      sample.host_needed_watts[0] = needed;
      sample.host_observed_watts[0] =
          std::min(kNodeTdpWatts, needed * rng.uniform(0.9, 1.1));
    }
  }
}

void send_all(net::Socket& socket, const std::string& frame) {
  std::string_view rest = frame;
  while (!rest.empty()) {
    const net::IoResult result = socket.write_some(rest);
    if (result.status == net::IoStatus::kOk) {
      rest.remove_prefix(result.bytes);
    } else if (result.status != net::IoStatus::kWouldBlock ||
               !socket.wait_writable(kIoTimeout)) {
      throw Error("rack link write failed");
    }
  }
}

std::string read_frame(net::Socket& socket, net::FrameDecoder& decoder) {
  const auto deadline = Clock::now() + kIoTimeout;
  while (true) {
    if (std::optional<std::string> frame = decoder.next()) {
      return *frame;
    }
    const auto left =
        std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
    if (left <= milliseconds(0) || !socket.wait_readable(left)) {
      throw Error("rack link read timed out");
    }
    char buffer[65536];
    const net::IoResult result = socket.read_some(buffer, sizeof(buffer));
    if (result.status == net::IoStatus::kClosed) {
      throw Error("daemon closed the rack link");
    }
    if (result.status == net::IoStatus::kOk) {
      decoder.feed({buffer, result.bytes});
    }
  }
}

struct RackLink {
  net::Socket socket;
  net::FrameDecoder decoder;
};

/// The budget the driver has been told is in force.
struct Enforced {
  double watts = 0.0;
  std::uint64_t epoch = 0;
};

/// Reads frames until the rack's policy frame, obeying budget pushes on
/// the way (they precede the caps computed under them).
core::RackPolicyMessage read_policy(RackLink& link, Enforced& budget,
                                    double* parse_us) {
  while (true) {
    const std::string payload = read_frame(link.socket, link.decoder);
    const auto start = Clock::now();
    switch (core::wire_message_kind(payload)) {
      case core::WireMessageKind::kBudget: {
        const core::BudgetMessage push = core::parse_budget_message(payload);
        if (push.epoch > budget.epoch) {
          budget = {push.budget_watts, push.epoch};
        }
        break;
      }
      case core::WireMessageKind::kRackPolicy: {
        core::RackPolicyMessage policy =
            core::parse_rack_policy_message(payload);
        if (parse_us != nullptr) {
          *parse_us += seconds_since(start) * 1e6;
        }
        return policy;
      }
      default:
        throw Error("unexpected frame on a rack link");
    }
  }
}

/// Why a round's caps are wrong, or empty when they pass.
std::string check_round(const Fleet& fleet,
                        const std::vector<core::RackPolicyMessage>& policies,
                        std::uint64_t round, const Enforced& budget) {
  double total = 0.0;
  for (std::size_t r = 0; r < kRacks; ++r) {
    const core::RackPolicyMessage& rack = policies[r];
    const core::RackSampleMessage& sent = fleet.racks[r];
    if (rack.rack != sent.rack || rack.policies.size() != sent.samples.size()) {
      return rack.rack + ": policy frame does not cover the rack's jobs";
    }
    for (std::size_t j = 0; j < rack.policies.size(); ++j) {
      const core::PolicyMessage& policy = rack.policies[j];
      if (policy.job_name != sent.samples[j].job_name ||
          policy.sequence != round || policy.host_caps_watts.size() != 1) {
        return policy.job_name + ": policy does not answer round " +
               std::to_string(round);
      }
      if (policy.budget_epoch != budget.epoch) {
        return policy.job_name + ": caps tagged with budget epoch " +
               std::to_string(policy.budget_epoch) + ", enforced epoch is " +
               std::to_string(budget.epoch);
      }
      const double cap = policy.host_caps_watts[0];
      if (!(cap >= sent.samples[j].min_settable_cap_watts)) {
        return policy.job_name + ": cap " + format_number(cap) +
               " W below its floor";
      }
      total += cap;
    }
  }
  // Floating-point slack only: the summation order of thousands of caps
  // moves the total by ulps, far below the stack's 0.5 W RAPL tolerance.
  if (!(total <= budget.watts * (1.0 + kSumSlack))) {
    return "round " + std::to_string(round) + " caps " +
           format_number(total) + " W exceed the enforced budget " +
           format_number(budget.watts) + " W";
  }
  return {};
}

struct Layers {
  std::vector<double> serialize_us;
  std::vector<double> parse_us;
  std::vector<double> daemon_parse_us;
  std::vector<double> context_build_ms;
  std::vector<double> allocate_us;
  std::vector<double> degradation_us;
  std::vector<double> round_self_ms;
  std::vector<double> unattributed_pct;
  bool have_counts = false;
  double bytes_per_round = 0.0;
  double allocate_calls = 0.0;
  double protocol_errors = 0.0;
  double policies_resent = 0.0;
  std::size_t replay_checked_rounds = 0;
};

/// The in-process replay of one round's daemon work, timed per layer.
struct Replay {
  bool same_caps = false;  ///< Replayed caps equal the received ones.
  double total_us = 0.0;
  std::size_t policy_bytes = 0;  ///< The daemon's three policy frames.
};

Replay replay_round(const std::vector<std::string>& sent_payloads,
                    const std::vector<core::RackPolicyMessage>& received,
                    const Enforced& budget, const core::Policy& policy,
                    Layers& layers) {
  Replay replay;
  auto start = Clock::now();
  std::vector<core::SampleMessage> samples;
  for (const std::string& payload : sent_payloads) {
    core::RackSampleMessage rack = core::parse_rack_sample_message(payload);
    for (core::SampleMessage& sample : rack.samples) {
      samples.push_back(std::move(sample));
    }
  }
  const double daemon_parse_us = seconds_since(start) * 1e6;

  start = Clock::now();
  const core::PolicyContext context = core::context_from_samples(
      budget.watts, kNodeTdpWatts, kUncappableWatts, samples);
  const double context_us = seconds_since(start) * 1e6;

  start = Clock::now();
  const rm::PowerAllocation raw = policy.allocate(context);
  const double allocate_us = seconds_since(start) * 1e6;

  start = Clock::now();
  const rm::PowerAllocation allocation = core::apply_sla_degradation(
      context, raw, budget.watts, "perfbench.replay");
  const double degradation_us = seconds_since(start) * 1e6;

  // The daemon's half of the encode work: the three rack-policy frames.
  start = Clock::now();
  for (const core::RackPolicyMessage& rack : received) {
    replay.policy_bytes +=
        net::encode_frame(serialize(rack, core::WireFidelity::kExact)).size();
  }
  const double policy_serialize_us = seconds_since(start) * 1e6;

  layers.daemon_parse_us.push_back(daemon_parse_us);
  layers.context_build_ms.push_back(context_us * 1e-3);
  layers.allocate_us.push_back(allocate_us);
  layers.degradation_us.push_back(degradation_us);
  layers.serialize_us.back() += policy_serialize_us;
  replay.total_us = daemon_parse_us + context_us + allocate_us +
                    degradation_us + policy_serialize_us;

  std::size_t job = 0;
  for (const core::RackPolicyMessage& rack : received) {
    for (const core::PolicyMessage& message : rack.policies) {
      if (job >= allocation.job_host_caps.size() ||
          allocation.job_host_caps[job] != message.host_caps_watts) {
        return replay;
      }
      ++job;
    }
  }
  replay.same_caps = job == allocation.job_host_caps.size();
  return replay;
}

Pass run_pass(std::uint64_t seed, std::size_t pass_index,
                    Layers* layers, UnitLedger& ledger, Report& report,
                    bool corrupt_output) {
  Pass pass;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();

  Fleet fleet = make_fleet(seed);
  net::DaemonOptions daemon_options;
  daemon_options.system_budget_watts = fleet.budget_watts;
  daemon_options.policy = core::PolicyKind::kMixedAdaptive;
  daemon_options.node_tdp_watts = kNodeTdpWatts;
  daemon_options.uncappable_watts = kUncappableWatts;
  daemon_options.min_jobs = kRacks * kJobsPerRack;
  daemon_options.root_mode = true;
  daemon_options.budget_revisions = fleet.schedule;
  daemon_options.reclaim_timeout = milliseconds(60'000);
  daemon_options.heartbeat_timeout = milliseconds(60'000);
  daemon_options.idle_timeout = milliseconds(60'000);
  // Relative to the working directory: short enough for sun_path
  // wherever the checkout lives.
  const std::string socket_path = "perfbench-" + std::to_string(::getpid()) +
                                  "-" + std::to_string(pass_index) + ".sock";
  const std::unique_ptr<core::Policy> replay_policy =
      core::make_policy(core::PolicyKind::kMixedAdaptive);
  net::PowerDaemon daemon(daemon_options);
  daemon.listen_unix(socket_path);
  // A daemon failure is recorded here; the driver then times out on its
  // links and fails the pass.
  std::string daemon_error;
  std::thread serving([&daemon, &daemon_error] {
    try {
      daemon.run();
    } catch (const std::exception& error) {
      daemon_error = error.what();
    }
  });

  Enforced budget{fleet.budget_watts, 0};
  try {
    std::vector<RackLink> links(kRacks);
    for (RackLink& link : links) {
      link.socket = net::connect_unix(socket_path);
    }
    std::vector<std::string> payloads(kRacks);
    std::vector<core::RackPolicyMessage> policies(kRacks);
    for (std::uint64_t round = 0; round <= kRounds; ++round) {
      stage_round(fleet, round);
      const bool timed = round > 0;
      const std::uint64_t epoch_before = budget.epoch;
      double serialize_us = 0.0;
      double parse_us = 0.0;
      std::size_t bytes = 0;
      if (timed) {
        pass.sample_host();
      }
      // A link failure throws out of the pass: the links are out of step.
      const auto unit_start = Clock::now();
      for (std::size_t r = 0; r < kRacks; ++r) {
        const auto encode_start = Clock::now();
        payloads[r] = serialize(fleet.racks[r], core::WireFidelity::kExact);
        const std::string frame = net::encode_frame(payloads[r]);
        serialize_us += seconds_since(encode_start) * 1e6;
        bytes += frame.size();
        send_all(links[r].socket, frame);
      }
      for (std::size_t r = 0; r < kRacks; ++r) {
        policies[r] = read_policy(links[r], budget, &parse_us);
      }
      const double unit_ms = seconds_since(unit_start) * 1e3;
      if (!timed) {
        pass.setup_s = seconds_since(start);
      }
      if (corrupt_output && round == kRounds) {
        policies[0].policies[0].host_caps_watts[0] += fleet.budget_watts;
      }
      const std::string problem = check_round(fleet, policies, round, budget);
      bool ok = problem.empty();
      if (!ok) {
        report.fail_check("root_fleet round " + std::to_string(round) +
                          ": " + problem);
      }
      if (!timed) {
        if (!ok) {
          throw Error("bootstrap round failed");
        }
        continue;
      }
      pass.unit_ms.push_back(unit_ms);
      if (layers != nullptr && ok) {
        layers->serialize_us.push_back(serialize_us);
        layers->parse_us.push_back(parse_us);
        const Replay replay =
            replay_round(payloads, policies, budget, *replay_policy, *layers);
        const bool steady = budget.epoch == epoch_before;
        if (steady) {
          ++layers->replay_checked_rounds;
          if (!replay.same_caps) {
            ok = false;
            report.fail_check("root_fleet round " + std::to_string(round) +
                              ": daemon caps differ from the in-process "
                              "allocation of the same samples");
          }
        }
        const double self_ms =
            unit_ms - (serialize_us + parse_us + replay.total_us) * 1e-3;
        layers->round_self_ms.push_back(self_ms);
        layers->unattributed_pct.push_back(self_ms / unit_ms * 100.0);
        if (!layers->have_counts && round == 1) {
          layers->bytes_per_round =
              static_cast<double>(bytes + replay.policy_bytes);
        }
      }
      ledger.record(ok);
    }
  } catch (const std::exception& error) {
    report.fail_check(std::string("root_fleet pass aborted: ") +
                      error.what());
    ledger.record(false);
  }
  daemon.stop();
  serving.join();
  if (!daemon_error.empty()) {
    report.fail_check("root daemon failed: " + daemon_error);
  }
  const net::DaemonStats stats = daemon.stats();
  if (layers != nullptr && !layers->have_counts) {
    layers->have_counts = true;
    layers->allocate_calls = static_cast<double>(stats.allocations);
    layers->protocol_errors = static_cast<double>(stats.protocol_errors);
    layers->policies_resent = static_cast<double>(stats.policies_resent);
  }
  if (stats.protocol_errors != 0 || stats.budget_violations != 0) {
    report.fail_check("daemon counted " +
                      std::to_string(stats.protocol_errors) +
                      " protocol errors and " +
                      std::to_string(stats.budget_violations) +
                      " budget violations");
  }
  if (stats.budget_revisions_applied != fleet.schedule.size()) {
    report.fail_check("daemon adopted " +
                      std::to_string(stats.budget_revisions_applied) +
                      " of " + std::to_string(fleet.schedule.size()) +
                      " scheduled budget revisions");
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = cpu_seconds() - cpu_start;
  return pass;
}

}  // namespace

Report run_root_fleet(const Options& options) {
  Report report;
  UnitLedger ledger;
  PassTimings untraced;
  PassTimings traced;
  Layers layers;
  run_passes(options, untraced, traced,
             [&](std::uint64_t seed, std::size_t index, bool traced_pass) {
               return run_pass(seed, index, traced_pass ? &layers : nullptr,
                               ledger, report,
                               options.inject_wrong_output && index == 0);
             });
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();
  report.note("rounds attempted " + std::to_string(ledger.attempted()) +
              ", failed " + std::to_string(ledger.failed()));

  if (!options.trace) {
    add_end_to_end(untraced, report);
    return report;
  }
  const double unattributed = median(layers.unattributed_pct);
  report.note("replayed allocations matched the daemon's caps on " +
              std::to_string(layers.replay_checked_rounds) +
              " steady rounds");
  report.note("round = encode + parse + daemon parse + context + allocate "
              "+ degradation + " +
              format_number(unattributed) +
              "% unattributed (sessions, event loop, flush, socket I/O)");
  report.add("core.policy.allocate_us", median(layers.allocate_us), "us");
  report.add("core.policy.allocate_calls", layers.allocate_calls, "count");
  report.add("core.context_build_ms", median(layers.context_build_ms), "ms");
  report.add("core.degradation_us", median(layers.degradation_us), "us");
  report.add("core.endpoint.serialize_us", median(layers.serialize_us), "us");
  report.add("core.endpoint.parse_us", median(layers.parse_us), "us");
  report.add("core.endpoint.daemon_parse_us", median(layers.daemon_parse_us),
             "us");
  report.add("core.endpoint.bytes_per_round", layers.bytes_per_round,
             "bytes");
  report.add("net.round_self_ms", median(layers.round_self_ms), "ms");
  report.add("net.protocol_errors", layers.protocol_errors, "count");
  report.add("net.policies_resent", layers.policies_resent, "count");
  report.add("unit.unattributed_pct", unattributed, "%");
  add_trace_summary(untraced, traced, report);
  return report;
}

}  // namespace perfbench
