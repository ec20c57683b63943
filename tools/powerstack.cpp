// The `powerstack` command-line tool: one front door to the stack.
//
//   powerstack signals
//       List the PlatformIO signals and controls.
//   powerstack characterize --workload ymm-i8-w50-x2 [--nodes N]
//       Run monitor + balancer characterization; print the CSV a site
//       would archive.
//   powerstack budgets --mix WastefulPower [--nodes N]
//       Derive the Table III budget levels for a mix.
//   powerstack balance --workload NAME --agent power_balancer [--nodes N]
//       Run a job under any runtime agent; show caps and speedup.
//   powerstack facility [--nodes N] [--hours H] [--policy P]
//       Run the event-driven facility over a Poisson job trace.
//   powerstack daemon --budget W [--socket PATH | --tcp PORT] [--root]
//       Serve the RM power daemon until interrupted (or --duration S);
//       --root additionally accepts per-rack aggregator sessions.
//   powerstack aggregator --parent PATH --rack NAME [--socket PATH]
//       Serve one rack's aggregation tier of the daemon tree.
//   powerstack agent --workload NAME [--socket PATH | --tcp PORT]
//       Run a job under daemon coordination over a real socket.
//   powerstack trace FILE [--replay] [--chrome OUT]
//       Summarize a JSONL trace; --replay reconstructs the allocation
//       sequence from events alone, --chrome exports trace_event JSON.
//   powerstack validate [--quick]
//       Run the reproduction self-check (exit 0 iff all claims hold).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>

#include "analysis/validation.hpp"
#include "obs/obs.hpp"
#include "obs/replay.hpp"
#include "core/budget_governor.hpp"
#include "core/mixes.hpp"
#include "ha/replicator.hpp"
#include "ha/standby.hpp"
#include "net/agent.hpp"
#include "net/aggregator.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "kernel/proxies.hpp"
#include "facility/facility_manager.hpp"
#include "runtime/agent_registry.hpp"
#include "runtime/characterization_io.hpp"
#include "runtime/controller.hpp"
#include "runtime/platform_io.hpp"
#include "sim/facility_trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace ps;

struct Args {
  std::string command;
  std::string workload = "ymm-i8-w50-x2";
  std::string mix = "WastefulPower";
  std::string policy = "MixedAdaptive";
  std::string agent = "power_balancer";
  std::size_t nodes = 8;
  double hours = 72.0;
  bool quick = false;
  bool backfill = false;
  // daemon / agent options
  std::string socket_path = "/tmp/powerstack-daemon.sock";
  int tcp_port = -1;  ///< -1: use the Unix socket.
  double budget_watts = 0.0;
  std::size_t min_jobs = 1;
  std::size_t iterations = 50;
  double duration_seconds = 0.0;  ///< daemon only; 0 = serve forever.
  std::string snapshot_path;  ///< daemon only; empty = no write-ahead.
  std::string job_name;
  /// facility: fraction of facility headroom granted to the cluster per
  /// step (a dynamic budget from a synthetic metering trace). 0 = fixed.
  double budget_share = 0.0;
  /// daemon: serve under a scheduled brownout (budget revisions derived
  /// from the synthetic facility trace, scaled to --budget).
  bool brownout = false;
  /// daemon: serve as the HA primary — replicate state to a standby
  /// over this listener (separate from the client-facing socket).
  std::string ha_socket;
  /// daemon: run as a hot standby replicating from this primary
  /// replication socket; promote and serve if its lease lapses.
  std::string standby_of;
  /// daemon: failover lease in milliseconds (shared by both HA roles).
  std::size_t lease_ms = 1000;
  /// agent: comma-separated failover endpoint list (unix paths, or bare
  /// port numbers for 127.0.0.1 TCP), primary first.
  std::string endpoints;
  /// daemon/agent: write the run's trace (JSONL, all streams) here.
  std::string trace_path;
  /// daemon/agent: dump the metrics registry to stdout on exit.
  bool metrics = false;
  /// daemon: also accept rack-aggregate frames (the tree root).
  bool root = false;
  /// aggregator: upstream daemon endpoint (unix path, or a bare port
  /// number for 127.0.0.1 TCP) and the rack this tier speaks for.
  std::string parent;
  std::string rack = "rack0";
  /// daemon/aggregator: event-loop readiness backend (poll | epoll);
  /// empty = PS_EVENT_BACKEND / platform default.
  std::string backend;
  /// trace: the file to inspect, plus report options.
  std::string trace_file;
  bool replay = false;
  std::string chrome_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      args.workload = argv[++i];
    } else if (arg == "--mix" && i + 1 < argc) {
      args.mix = argv[++i];
    } else if (arg == "--policy" && i + 1 < argc) {
      args.policy = argv[++i];
    } else if (arg == "--agent" && i + 1 < argc) {
      args.agent = argv[++i];
    } else if (arg == "--nodes" && i + 1 < argc) {
      args.nodes = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--hours" && i + 1 < argc) {
      args.hours = std::strtod(argv[++i], nullptr);
    } else if (arg == "--backfill") {
      args.backfill = true;
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--socket" && i + 1 < argc) {
      args.socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      args.tcp_port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--budget" && i + 1 < argc) {
      args.budget_watts = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-jobs" && i + 1 < argc) {
      args.min_jobs = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--iterations" && i + 1 < argc) {
      args.iterations = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--duration" && i + 1 < argc) {
      args.duration_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--snapshot" && i + 1 < argc) {
      args.snapshot_path = argv[++i];
    } else if (arg == "--job" && i + 1 < argc) {
      args.job_name = argv[++i];
    } else if (arg == "--budget-share" && i + 1 < argc) {
      args.budget_share = std::strtod(argv[++i], nullptr);
    } else if (arg == "--brownout") {
      args.brownout = true;
    } else if (arg == "--ha-socket" && i + 1 < argc) {
      args.ha_socket = argv[++i];
    } else if (arg == "--standby-of" && i + 1 < argc) {
      args.standby_of = argv[++i];
    } else if (arg == "--lease" && i + 1 < argc) {
      args.lease_ms = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--endpoints" && i + 1 < argc) {
      args.endpoints = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (arg == "--metrics") {
      args.metrics = true;
    } else if (arg == "--root") {
      args.root = true;
    } else if (arg == "--parent" && i + 1 < argc) {
      args.parent = argv[++i];
    } else if (arg == "--rack" && i + 1 < argc) {
      args.rack = argv[++i];
    } else if (arg == "--backend" && i + 1 < argc) {
      args.backend = argv[++i];
    } else if (arg == "--replay") {
      args.replay = true;
    } else if (arg == "--chrome" && i + 1 < argc) {
      args.chrome_path = argv[++i];
    } else if (!arg.starts_with("--") && args.trace_file.empty()) {
      args.trace_file = arg;  // positional: the trace command's FILE
    }
  }
  return args;
}

int usage() {
  std::printf(
      "usage: powerstack <command> [options]\n"
      "  signals                         list PlatformIO signals/controls\n"
      "  characterize --workload NAME    monitor+balancer characterization\n"
      "                                  (NAME: ymm-i8-w50-x2 or a proxy: stream,\n"
      "                                   dgemm, spmv, stencil, graph, mc)\n"
      "  budgets --mix NAME              Table III budget levels for a mix\n"
      "  balance --agent NAME            run a job under any runtime agent\n"
      "  facility [--hours H] [--backfill] [--budget-share F]\n"
      "                                  event-driven facility run; with\n"
      "                                  --budget-share, the cluster budget\n"
      "                                  tracks F of facility headroom\n"
      "                                  (~0.003 suits 8 nodes)\n"
      "  daemon --budget W [--min-jobs N] [--duration S] [--snapshot PATH]\n"
      "         [--root]\n"
      "                                  serve the RM power daemon; with\n"
      "                                  --snapshot, restarts rehydrate jobs;\n"
      "                                  --brownout schedules budget drops\n"
      "                                  --ha-socket PATH replicates state\n"
      "                                  to a standby; --standby-of PATH\n"
      "                                  runs AS the standby (promotes when\n"
      "                                  the --lease MS lease lapses)\n"
      "  aggregator --parent ENDPOINT --rack NAME [--min-jobs N]\n"
      "                                  serve one rack of the daemon tree:\n"
      "                                  batch local samples upward, fan the\n"
      "                                  rack budget back out as per-job caps\n"
      "  agent --workload NAME [--job NAME] [--iterations N]\n"
      "                                  run a job under daemon coordination;\n"
      "                                  --endpoints A,B,... fails over down\n"
      "                                  an ordered endpoint list\n"
      "  trace FILE [--replay] [--chrome OUT]\n"
      "                                  summarize a JSONL trace; --replay\n"
      "                                  reconstructs the watt allocations\n"
      "                                  from the events alone\n"
      "  validate [--quick]              reproduction self-check\n"
      "common options: --nodes N --policy NAME\n"
      "transport options (daemon/agent): --socket PATH | --tcp PORT\n"
      "event loop (daemon/aggregator): --backend poll|epoll\n"
      "observability (daemon/agent): --trace PATH --metrics\n");
  return 2;
}

std::optional<net::EventBackend> parse_backend(const std::string& name) {
  if (name.empty()) {
    return net::default_event_backend();
  }
  if (util::iequals(name, "poll")) {
    return net::EventBackend::kPoll;
  }
  if (util::iequals(name, "epoll")) {
    return net::EventBackend::kEpoll;
  }
  return std::nullopt;
}

/// An endpoint operand: a bare port number dials 127.0.0.1 TCP, anything
/// else is a Unix socket path.
net::RuntimeClient::TransportConnector endpoint_connector(
    const std::string& endpoint) {
  if (endpoint.find_first_not_of("0123456789") == std::string::npos &&
      !endpoint.empty()) {
    const auto port = static_cast<std::uint16_t>(
        std::strtoul(endpoint.c_str(), nullptr, 10));
    return [port] { return net::make_transport(net::connect_tcp(port)); };
  }
  return [path = endpoint] {
    return net::make_transport(net::connect_unix(path));
  };
}

std::optional<core::MixKind> parse_mix(std::string_view name) {
  for (core::MixKind kind : core::all_mix_kinds()) {
    if (util::iequals(name, core::to_string(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

/// Workload names accept proxy handles ("stream", "dgemm", ...) as well
/// as raw configuration names ("ymm-i8-w50-x2").
kernel::WorkloadConfig resolve_workload(const std::string& name) {
  for (const kernel::WorkloadProxy& proxy : kernel::workload_proxies()) {
    if (util::iequals(proxy.name, name)) {
      return proxy.config;
    }
  }
  return kernel::parse_workload(name);
}

/// Dumps the metrics registry to stdout when --metrics asked for it.
void print_metrics(const Args& args, const obs::MetricsRegistry& registry) {
  if (args.metrics) {
    std::ostringstream text;
    registry.render_text(text);
    std::fputs(text.str().c_str(), stdout);
  }
}

int cmd_signals() {
  std::printf("signals:\n");
  for (const std::string& name : runtime::PlatformIO::signal_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("controls:\n");
  for (const std::string& name : runtime::PlatformIO::control_names()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

int cmd_characterize(const Args& args) {
  const kernel::WorkloadConfig config = resolve_workload(args.workload);
  sim::Cluster cluster(args.nodes);
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < args.nodes; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  sim::JobSimulation job(args.workload, std::move(hosts), config);
  const runtime::JobCharacterization data =
      runtime::characterize_job(job, 5);
  std::ostringstream out;
  runtime::write_characterization_csv(out, args.workload, data);
  std::fputs(out.str().c_str(), stdout);
  std::printf("# uncapped %.1f W/node, needed %.1f W/node\n",
              data.monitor.average_node_power_watts,
              data.balancer.average_node_power_watts);
  return 0;
}

int cmd_budgets(const Args& args) {
  const auto mix_kind = parse_mix(args.mix);
  if (!mix_kind) {
    std::fprintf(stderr, "unknown mix '%s'\n", args.mix.c_str());
    return 2;
  }
  analysis::ExperimentOptions options;
  options.nodes_per_job = args.nodes;
  options.iterations = 10;
  options.characterization_iterations = 3;
  options.hardware_variation = false;
  analysis::ExperimentDriver driver(options);
  analysis::MixExperiment experiment =
      driver.prepare(core::make_mix(*mix_kind, args.nodes));
  const core::PowerBudgets& budgets = experiment.budgets();
  const double hosts = static_cast<double>(experiment.total_hosts());
  std::printf("%s (%zu hosts):\n", args.mix.c_str(),
              experiment.total_hosts());
  std::printf("  min:   %s (%.1f W/node)\n",
              util::format_watts(budgets.min_watts).c_str(),
              budgets.min_watts / hosts);
  std::printf("  ideal: %s (%.1f W/node)\n",
              util::format_watts(budgets.ideal_watts).c_str(),
              budgets.ideal_watts / hosts);
  std::printf("  max:   %s (%.1f W/node)\n",
              util::format_watts(budgets.max_watts).c_str(),
              budgets.max_watts / hosts);
  return 0;
}

int cmd_balance(const Args& args) {
  const kernel::WorkloadConfig config = resolve_workload(args.workload);
  const runtime::AgentKind kind =
      runtime::agent_kind_from_name(args.agent);
  sim::Cluster cluster(args.nodes);
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < args.nodes; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  sim::JobSimulation job(args.workload, std::move(hosts), config);
  const double budget = 195.0 * static_cast<double>(args.nodes);

  // Uniform reference first.
  for (std::size_t h = 0; h < args.nodes; ++h) {
    job.set_host_cap(h, budget / static_cast<double>(args.nodes));
  }
  const double uniform_time = job.run_iteration().iteration_seconds;

  const auto agent = runtime::make_agent(kind, budget);
  const runtime::JobReport report =
      runtime::Controller(10, 3).run(job, *agent);
  const double agent_time =
      report.elapsed_seconds / static_cast<double>(report.iterations);

  std::printf("%s on %s, %zu hosts, budget %s:\n", args.agent.c_str(),
              args.workload.c_str(), args.nodes,
              util::format_watts(budget).c_str());
  util::TextTable table;
  table.add_column("host", util::Align::kRight, 0);
  table.add_column("cap (W)", util::Align::kRight, 1);
  table.add_column("freq cap (GHz)", util::Align::kRight, 2);
  table.add_column("role", util::Align::kLeft);
  for (std::size_t h = 0; h < args.nodes; ++h) {
    table.begin_row();
    table.add_cell(std::to_string(h));
    table.add_number(job.host_cap(h));
    table.add_number(job.host(h).frequency_cap());
    table.add_cell(job.is_waiting_host(h) ? "waiting" : "critical");
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("iteration time: uniform %s -> %s (%+.1f%%)\n",
              util::format_seconds(uniform_time).c_str(),
              util::format_seconds(agent_time).c_str(),
              (agent_time / uniform_time - 1.0) * 100.0);
  return 0;
}

int cmd_facility(const Args& args) {
  const auto policy = core::parse_policy_kind(args.policy);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", args.policy.c_str());
    return 2;
  }
  sim::Cluster cluster(args.nodes);
  facility::JobTraceOptions traffic;
  traffic.horizon_hours = args.hours;
  traffic.arrivals_per_hour = 0.5;
  traffic.min_nodes = std::max<std::size_t>(1, args.nodes / 8);
  traffic.max_nodes = std::max<std::size_t>(1, args.nodes / 2);
  util::Rng rng(0xC11);
  facility::FacilityOptions options;
  options.horizon_hours = args.hours;
  options.policy = *policy;
  options.backfill = args.backfill;
  if (args.budget_share > 0.0) {
    util::Rng trace_rng(0xFAC);
    const sim::FacilityTrace trace =
        sim::generate_facility_trace({}, trace_rng);
    const auto steps =
        static_cast<std::size_t>(args.hours / options.step_hours);
    const double floor_watts =
        cluster.node(0).min_cap() * static_cast<double>(args.nodes);
    options.budget_signal_watts = core::budget_signal_from_trace(
        trace, args.budget_share, std::max<std::size_t>(steps, 2),
        floor_watts);
    options.governor.floor_watts = floor_watts;
  }
  facility::FacilityManager manager(cluster, options);
  const facility::FacilityResult result =
      manager.run(facility::generate_job_trace(rng, traffic));
  std::printf("%zu nodes, %.0f h, policy %s:\n", args.nodes, args.hours,
              args.policy.c_str());
  std::printf("  completed jobs: %zu\n", result.completed_jobs);
  std::printf("  mean wait:      %.2f h\n", result.mean_wait_hours());
  std::printf("  mean power:     %s\n",
              util::format_watts(result.mean_power_watts()).c_str());
  std::printf("  peak power:     %s\n",
              util::format_watts(result.peak_power_watts()).c_str());
  std::printf("  utilization:    %.0f%%\n",
              result.mean_utilization() * 100.0);
  if (args.budget_share > 0.0) {
    std::printf("  budget revisions: %zu (%zu emergency clamps)\n",
                result.budget_revisions, result.emergency_clamps);
    std::printf("  final budget:   %s (epoch %llu)\n",
                util::format_watts(result.budget_watts.back()).c_str(),
                static_cast<unsigned long long>(result.final_budget_epoch));
    std::printf(
        "  excursions:     %zu (worst %.1f W over, max time-to-safe %.1f "
        "s)\n",
        result.excursions.excursions, result.excursions.worst_over_watts,
        result.excursions.max_time_to_safe_seconds);
  }
  return 0;
}

int cmd_daemon(const Args& args) {
  const auto policy = core::parse_policy_kind(args.policy);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", args.policy.c_str());
    return 2;
  }
  net::DaemonOptions options;
  options.system_budget_watts =
      args.budget_watts > 0.0
          ? args.budget_watts
          : 195.0 * static_cast<double>(args.nodes * args.min_jobs);
  options.policy = *policy;
  options.min_jobs = args.min_jobs;
  options.root_mode = args.root;
  const auto backend = parse_backend(args.backend);
  if (!backend) {
    std::fprintf(stderr, "unknown backend '%s'\n", args.backend.c_str());
    return 2;
  }
  options.event_backend = *backend;
  options.snapshot_path = args.snapshot_path;
  if (args.brownout) {
    // A budget schedule shaped like the facility trace, scaled so it
    // wanders around the configured budget: share * mean headroom ==
    // budget. One revision opportunity per allocation round.
    util::Rng trace_rng(0xFAC);
    const sim::FacilityTrace trace =
        sim::generate_facility_trace({}, trace_rng);
    const double mean_headroom_watts =
        (trace.params.peak_rating_mw - trace.mean_mw()) * 1e6;
    const double share = options.system_budget_watts / mean_headroom_watts;
    core::BudgetGovernorOptions governor;
    governor.floor_watts = 0.25 * options.system_budget_watts;
    const std::vector<double> signal = core::budget_signal_from_trace(
        trace, share, /*samples=*/64, governor.floor_watts);
    options.budget_revisions = core::make_budget_schedule(
        options.system_budget_watts, signal, governor);
    std::printf("daemon: brownout schedule, %zu revisions\n",
                options.budget_revisions.size());
  }
  obs::MetricsRegistry registry;
  obs::TraceSink sink;
  if (!args.trace_path.empty()) {
    options.obs.trace = &sink;
  }
  if (args.metrics || !args.trace_path.empty()) {
    options.obs.metrics = &registry;
  }
  if (!args.standby_of.empty()) {
    // Hot-standby role: replicate from the primary's --ha-socket; the
    // DaemonOptions built above become the promotion template, and the
    // client-facing listener binds only at promotion time.
    ha::StandbyOptions standby_options;
    const std::string primary_path = args.standby_of;
    standby_options.primary = [primary_path] {
      return net::make_transport(net::connect_unix(primary_path));
    };
    standby_options.daemon = options;
    standby_options.lease = std::chrono::milliseconds(args.lease_ms);
    standby_options.obs = options.obs;
    if (args.tcp_port >= 0) {
      const auto port = static_cast<std::uint16_t>(args.tcp_port);
      standby_options.bind = [port](net::PowerDaemon& daemon) {
        daemon.listen_tcp(port);
      };
    } else {
      const std::string path = args.socket_path;
      standby_options.bind = [path](net::PowerDaemon& daemon) {
        daemon.listen_unix(path);
      };
    }
    ha::StandbyDaemon standby(standby_options);
    std::printf("standby: replicating from %s, lease %zu ms\n",
                args.standby_of.c_str(), args.lease_ms);
    std::fflush(stdout);
    std::thread stopper;
    if (args.duration_seconds > 0.0) {
      stopper = std::thread([&standby, seconds = args.duration_seconds] {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        standby.stop();
      });
    }
    standby.run();
    if (stopper.joinable()) {
      stopper.join();
    }
    const ha::StandbyStats stats = standby.stats();
    std::printf(
        "standby: %s, %zu updates applied (%zu rejected), %llu rounds "
        "replicated, fence epoch %llu\n",
        stats.promoted ? "promoted" : (stats.synced ? "synced" : "never synced"),
        stats.updates_applied, stats.updates_rejected,
        static_cast<unsigned long long>(stats.rounds),
        static_cast<unsigned long long>(stats.fence_epoch));
    if (const net::PowerDaemon* promoted = standby.daemon()) {
      const net::DaemonStats daemon_stats = promoted->stats();
      std::printf(
          "standby: served %zu sessions, %zu allocations, %zu jobs "
          "restored after takeover\n",
          daemon_stats.sessions_accepted, daemon_stats.allocations,
          daemon_stats.jobs_restored);
    }
    return 0;
  }

  std::unique_ptr<ha::Replicator> replicator;
  if (!args.ha_socket.empty()) {
    ha::ReplicatorOptions replicator_options;
    replicator_options.lease = std::chrono::milliseconds(args.lease_ms);
    replicator_options.obs = options.obs;
    replicator = std::make_unique<ha::Replicator>(replicator_options);
    replicator->listen_unix(args.ha_socket);
    replicator->start();
    options.replication_sink = replicator->sink();
    options.fence_check = replicator->fence_check();
    std::printf("daemon: replicating to standby at %s, lease %zu ms\n",
                args.ha_socket.c_str(), args.lease_ms);
  }
  net::PowerDaemon daemon(options);
  if (!args.snapshot_path.empty()) {
    std::printf("daemon: snapshot %s, %zu jobs restored\n",
                args.snapshot_path.c_str(), daemon.stats().jobs_restored);
  }
  if (args.tcp_port >= 0) {
    daemon.listen_tcp(static_cast<std::uint16_t>(args.tcp_port));
    std::printf("daemon%s: tcp 127.0.0.1:%u, budget %.1f W, policy %s\n",
                args.root ? " (root)" : "", daemon.tcp_port(),
                options.system_budget_watts, args.policy.c_str());
  } else {
    daemon.listen_unix(args.socket_path);
    std::printf("daemon%s: unix %s, budget %.1f W, policy %s\n",
                args.root ? " (root)" : "", args.socket_path.c_str(),
                options.system_budget_watts, args.policy.c_str());
  }
  std::fflush(stdout);

  std::thread stopper;
  if (args.duration_seconds > 0.0) {
    stopper = std::thread([&daemon, seconds = args.duration_seconds] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      daemon.stop();
    });
  }
  daemon.run();
  if (stopper.joinable()) {
    stopper.join();
  }
  const net::DaemonStats stats = daemon.stats();
  std::printf(
      "daemon: %zu sessions, %zu samples, %zu allocations, "
      "%zu policies sent\n",
      stats.sessions_accepted, stats.samples_received, stats.allocations,
      stats.policies_sent);
  if (args.root) {
    std::printf(
        "daemon: %zu rack frames in, %zu rack policies out "
        "(%zu resent)\n",
        stats.rack_frames_received, stats.rack_policies_sent,
        stats.rack_policies_resent);
  }
  if (args.brownout) {
    std::printf(
        "daemon: budget %.1f W at epoch %llu, %zu revisions applied, "
        "%zu pushes, %zu emergency clamps, %zu adoption clamps\n",
        stats.budget_watts,
        static_cast<unsigned long long>(stats.budget_epoch),
        stats.budget_revisions_applied, stats.budget_pushes,
        stats.emergency_clamps, stats.adoption_clamps);
  }
  if (replicator) {
    const ha::ReplicatorStats repl_stats = replicator->stats();
    replicator->stop();
    std::printf(
        "daemon: replication %zu updates, %zu heartbeats, %zu acks%s\n",
        repl_stats.updates_sent, repl_stats.heartbeats_sent,
        repl_stats.acks_received,
        repl_stats.fenced ? " (fenced: superseded by the standby)" : "");
  }
  if (!args.trace_path.empty()) {
    std::ofstream out(args.trace_path);
    obs::write_jsonl(out, sink.events());
    std::printf("daemon: trace %s, %zu events\n", args.trace_path.c_str(),
                sink.size());
  }
  print_metrics(args, registry);
  return 0;
}

int cmd_aggregator(const Args& args) {
  if (args.parent.empty()) {
    std::fprintf(stderr, "aggregator: need --parent ENDPOINT\n");
    return 2;
  }
  const auto backend = parse_backend(args.backend);
  if (!backend) {
    std::fprintf(stderr, "unknown backend '%s'\n", args.backend.c_str());
    return 2;
  }
  net::AggregatorOptions options;
  options.rack = args.rack;
  options.min_jobs = args.min_jobs;
  options.event_backend = *backend;
  const auto connect_parent = endpoint_connector(args.parent);
  options.parent_connector = [connect_parent]()
      -> std::unique_ptr<net::Transport> {
    try {
      return connect_parent();
    } catch (const std::exception&) {
      return nullptr;  // parent down: retried on the next tick
    }
  };
  obs::MetricsRegistry registry;
  if (args.metrics) {
    options.obs.metrics = &registry;
  }
  net::AggregatorDaemon aggregator(options);
  if (args.tcp_port >= 0) {
    aggregator.listen_tcp(static_cast<std::uint16_t>(args.tcp_port));
    std::printf("aggregator %s: tcp 127.0.0.1:%u -> parent %s\n",
                args.rack.c_str(), aggregator.tcp_port(),
                args.parent.c_str());
  } else {
    aggregator.listen_unix(args.socket_path);
    std::printf("aggregator %s: unix %s -> parent %s\n", args.rack.c_str(),
                args.socket_path.c_str(), args.parent.c_str());
  }
  std::fflush(stdout);

  std::thread stopper;
  if (args.duration_seconds > 0.0) {
    stopper = std::thread([&aggregator, seconds = args.duration_seconds] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      aggregator.stop();
    });
  }
  aggregator.run();
  if (stopper.joinable()) {
    stopper.join();
  }
  const net::AggregatorStats stats = aggregator.stats();
  std::printf(
      "aggregator: %zu sessions, %zu samples, %zu rounds forwarded, "
      "%zu policies fanned out, rack budget %.1f W\n",
      stats.sessions_accepted, stats.samples_received,
      stats.rounds_forwarded, stats.policies_fanned_out,
      stats.rack_budget_watts);
  print_metrics(args, registry);
  return 0;
}

int cmd_agent(const Args& args) {
  const kernel::WorkloadConfig config = resolve_workload(args.workload);
  sim::Cluster cluster(args.nodes);
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < args.nodes; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  const std::string job_name =
      args.job_name.empty() ? args.workload : args.job_name;
  sim::JobSimulation job(job_name, std::move(hosts), config);

  obs::MetricsRegistry registry;
  net::ClientOptions client_options;
  if (args.metrics) {
    client_options.obs.metrics = &registry;
  }
  const auto make_client = [&args, &client_options]() -> net::RuntimeClient {
    if (!args.endpoints.empty()) {
      // Ordered failover list: a bare port number dials 127.0.0.1 TCP,
      // anything else is a Unix socket path.
      std::vector<net::RuntimeClient::TransportConnector> connectors;
      std::stringstream list(args.endpoints);
      std::string entry;
      while (std::getline(list, entry, ',')) {
        if (entry.empty()) {
          continue;
        }
        if (entry.find_first_not_of("0123456789") == std::string::npos) {
          const auto port = static_cast<std::uint16_t>(
              std::strtoul(entry.c_str(), nullptr, 10));
          connectors.push_back([port] {
            return net::make_transport(net::connect_tcp(port));
          });
        } else {
          connectors.push_back([path = entry] {
            return net::make_transport(net::connect_unix(path));
          });
        }
      }
      return net::RuntimeClient(std::move(connectors), client_options);
    }
    net::RuntimeClient::Connector connector;
    if (args.tcp_port >= 0) {
      const auto port = static_cast<std::uint16_t>(args.tcp_port);
      connector = [port] { return net::connect_tcp(port); };
    } else {
      const std::string path = args.socket_path;
      connector = [path] { return net::connect_unix(path); };
    }
    return net::RuntimeClient(std::move(connector), client_options);
  };
  net::RuntimeClient client = make_client();
  net::CoordinatedAgent agent(job, client);
  const net::AgentResult result = agent.run(args.iterations);

  std::printf("agent %s: %zu iterations in %zu epochs\n", job_name.c_str(),
              result.iterations, result.epochs);
  std::printf("  policies applied: %zu (fallback epochs: %zu)\n",
              result.policies_applied, result.fallback_epochs);
  if (!args.endpoints.empty()) {
    const net::ClientStats stats = client.stats();
    std::printf(
        "  failover: endpoint %zu of %zu, %zu rotations, fence epoch "
        "%llu\n",
        client.endpoint_index() + 1, client.endpoint_count(),
        stats.endpoint_rotations,
        static_cast<unsigned long long>(client.fence_epoch()));
  }
  std::printf("  caps:");
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    std::printf(" %.1f", job.host_cap(h));
  }
  std::printf(" W\n");
  std::printf("  energy: %.1f J over %.2f s (%.3f GF/W)\n",
              result.energy_joules, result.elapsed_seconds,
              result.energy_joules > 0.0
                  ? result.total_gflop / result.energy_joules
                  : 0.0);
  print_metrics(args, registry);
  return result.policies_applied > 0 ? 0 : 1;
}

int cmd_trace(const Args& args) {
  if (args.trace_file.empty()) {
    std::fprintf(stderr, "trace: need a FILE operand\n");
    return 2;
  }
  std::ifstream in(args.trace_file);
  if (!in) {
    std::fprintf(stderr, "trace: cannot open '%s'\n",
                 args.trace_file.c_str());
    return 1;
  }
  const std::vector<obs::TraceEvent> events = obs::read_jsonl(in);
  obs::print_trace_report(std::cout, events, args.replay);
  if (!args.chrome_path.empty()) {
    std::ofstream out(args.chrome_path);
    obs::write_chrome_trace(out, events);
    std::printf("chrome trace written to %s\n", args.chrome_path.c_str());
  }
  return 0;
}

int cmd_validate(const Args& args) {
  analysis::ExperimentOptions options;
  options.nodes_per_job = args.quick ? 8 : 100;
  options.iterations = args.quick ? 16 : 100;
  options.characterization_iterations = args.quick ? 3 : 5;
  const analysis::ValidationReport report =
      analysis::validate_paper_claims(options);
  for (const auto& claim : report.claims) {
    std::printf("[%s] %-18s %s\n", claim.passed ? "PASS" : "FAIL",
                claim.id.c_str(), claim.description.c_str());
  }
  std::printf("%zu / %zu claims hold.\n", report.passed_count(),
              report.claims.size());
  return report.all_passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "signals") {
      return cmd_signals();
    }
    if (args.command == "characterize") {
      return cmd_characterize(args);
    }
    if (args.command == "budgets") {
      return cmd_budgets(args);
    }
    if (args.command == "balance") {
      return cmd_balance(args);
    }
    if (args.command == "facility") {
      return cmd_facility(args);
    }
    if (args.command == "daemon") {
      return cmd_daemon(args);
    }
    if (args.command == "aggregator") {
      return cmd_aggregator(args);
    }
    if (args.command == "agent") {
      return cmd_agent(args);
    }
    if (args.command == "trace") {
      return cmd_trace(args);
    }
    if (args.command == "validate") {
      return cmd_validate(args);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}
