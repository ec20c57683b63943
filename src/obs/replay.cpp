#include "obs/replay.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::obs {

namespace {

constexpr std::array<std::string_view, 3> kDeterministic = {
    cat::kCoord, cat::kRm, cat::kDaemon};

/// Reads the per-host caps ("c0", "c1", ...) off a "caps" event.
std::vector<double> caps_from_event(const TraceEvent& event) {
  std::vector<double> caps;
  for (std::size_t h = 0;; ++h) {
    const std::string key = cap_key(h);
    if (!has_arg(event, key)) {
      break;
    }
    caps.push_back(arg_as_double(event, key));
  }
  PS_REQUIRE(!caps.empty(), "caps event carries no host caps");
  return caps;
}

/// Reads the per-host GPU caps ("g0", "g1", ...) off a "caps" event.
/// Empty for single-domain jobs — g-keys only appear on hetero traces.
std::vector<double> gpu_caps_from_event(const TraceEvent& event) {
  std::vector<double> caps;
  for (std::size_t h = 0;; ++h) {
    const std::string key = gpu_cap_key(h);
    if (!has_arg(event, key)) {
      break;
    }
    caps.push_back(arg_as_double(event, key));
  }
  return caps;
}

}  // namespace

std::span<const std::string_view> deterministic_categories() {
  return kDeterministic;
}

std::string cap_key(std::size_t host) {
  // Built digits-first: GCC 12's -Wrestrict misfires on ("c" + ...).
  std::string key = std::to_string(host);
  key.insert(key.begin(), 'c');
  return key;
}

std::string gpu_cap_key(std::size_t host) {
  std::string key = std::to_string(host);
  key.insert(key.begin(), 'g');
  return key;
}

TraceEvent caps_event(std::uint64_t tick, std::string_view category,
                      std::vector<TraceArg> args, std::span<const double> caps,
                      std::span<const double> gpu_caps) {
  TraceEvent event{tick, std::string(category), "caps", std::move(args)};
  for (std::size_t h = 0; h < caps.size(); ++h) {
    event.args.push_back({cap_key(h), caps[h]});
  }
  for (std::size_t h = 0; h < gpu_caps.size(); ++h) {
    event.args.push_back({gpu_cap_key(h), gpu_caps[h]});
  }
  return event;
}

TraceSummary summarize(std::span<const TraceEvent> events) {
  TraceSummary summary;
  summary.event_count = events.size();
  std::map<std::string, std::size_t> by_category;
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (i == 0) {
      summary.first_tick = event.tick;
      summary.last_tick = event.tick;
    } else {
      summary.first_tick = std::min(summary.first_tick, event.tick);
      summary.last_tick = std::max(summary.last_tick, event.tick);
    }
    ++by_category[event.category];
    ++by_name[event.category + "/" + event.name];
  }
  summary.category_counts.assign(by_category.begin(), by_category.end());
  summary.event_counts.assign(by_name.begin(), by_name.end());
  return summary;
}

double ReplayedAllocation::total_watts() const {
  double total = 0.0;
  for (const ReplayedJobCaps& job : jobs) {
    for (double cap : job.caps_watts) {
      total += cap;
    }
    for (double cap : job.gpu_caps_watts) {
      total += cap;
    }
  }
  return total;
}

std::vector<ReplayedAllocation> replay_allocations(
    std::span<const TraceEvent> events) {
  std::vector<ReplayedAllocation> steps;
  // One in-flight step per stream: "caps" events accumulate into the
  // step their (category, tick) names; the matching "epoch"/"round"
  // event fills in the budget columns. A new tick on a stream opens a
  // new step.
  std::map<std::string, std::size_t> open;  // category -> index into steps.
  const auto step_for = [&](const TraceEvent& event) -> ReplayedAllocation& {
    const auto it = open.find(event.category);
    if (it != open.end() && steps[it->second].tick == event.tick) {
      return steps[it->second];
    }
    ReplayedAllocation step;
    step.tick = event.tick;
    steps.push_back(std::move(step));
    open[event.category] = steps.size() - 1;
    return steps.back();
  };
  for (const TraceEvent& event : events) {
    if (event.category != cat::kCoord && event.category != cat::kDaemon) {
      continue;
    }
    if (event.name == "caps") {
      ReplayedJobCaps job;
      job.job = arg_as_string(event, "job");
      job.caps_watts = caps_from_event(event);
      job.gpu_caps_watts = gpu_caps_from_event(event);
      step_for(event).jobs.push_back(std::move(job));
    } else if (event.name == "epoch" || event.name == "round") {
      ReplayedAllocation& step = step_for(event);
      step.budget_watts = arg_as_double(event, "budget_watts");
      step.budget_epoch = arg_as_uint(event, "budget_epoch");
      if (has_arg(event, "emergency")) {
        step.emergency = arg_as_bool(event, "emergency");
      }
    }
  }
  return steps;
}

void print_trace_report(std::ostream& out, std::span<const TraceEvent> events,
                        bool replay) {
  const TraceSummary summary = summarize(events);
  out << summary.event_count << " events";
  if (summary.event_count > 0) {
    out << ", ticks " << summary.first_tick << ".." << summary.last_tick;
  }
  out << '\n';
  for (const auto& [category, count] : summary.category_counts) {
    out << "  " << category << ": " << count << '\n';
  }
  for (const auto& [name, count] : summary.event_counts) {
    out << "    " << name << ": " << count << '\n';
  }
  if (!replay) {
    return;
  }
  const std::vector<ReplayedAllocation> steps = replay_allocations(events);
  out << "replayed allocation steps: " << steps.size() << '\n';
  for (const ReplayedAllocation& step : steps) {
    out << "  tick " << step.tick << ": "
        << util::format_watts(step.total_watts());
    if (step.budget_watts > 0.0) {
      out << " / budget " << util::format_watts(step.budget_watts)
          << " (epoch " << step.budget_epoch << ")";
    }
    if (step.emergency) {
      out << " [emergency clamp]";
    }
    out << '\n';
    for (const ReplayedJobCaps& job : step.jobs) {
      out << "    " << job.job << ":";
      for (double cap : job.caps_watts) {
        out << ' ' << util::format_watts(cap, 1);
      }
      if (!job.gpu_caps_watts.empty()) {
        out << " | gpu:";
        for (double cap : job.gpu_caps_watts) {
          out << ' ' << util::format_watts(cap, 1);
        }
      }
      out << '\n';
    }
  }
}

}  // namespace ps::obs
