#include "common.hpp"

#include "sha256.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

Options parse_options(const std::vector<std::string>& args) {
  Options options;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--inject-wrong-output") {
      options.inject_wrong_output = true;
      continue;
    }
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string& value = args[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value, &used);
      if (!(options.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
      used = value.size();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (flag != "--workload" && used != value.size()) {
      throw std::invalid_argument("malformed value for " + flag + ": " +
                                  value);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return options;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
  // SplitMix64 over (seed, index): distinct passes get unrelated seeds.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// 1-based nearest rank of the p-th percentile among `count` samples,
/// immune to p/100 not being exact in binary (99.9% of 10000 is 9990).
std::size_t nearest_rank(std::size_t count, double p) {
  const double exact = p * static_cast<double>(count) / 100.0;
  return static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile must be in (0, 100]");
  }
  const std::size_t rank = nearest_rank(samples.size(), p);
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samples_beyond(std::size_t count, double p) {
  return count - std::min(nearest_rank(count, p), count);
}

std::optional<double> highest_supported_percentile(std::size_t count,
                                                   std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(count, p) >= min_beyond) {
      return p;
    }
  }
  return std::nullopt;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric value is not finite");
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string Report::to_json() const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      json += ", ";
    }
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double time_reference() {
  static const std::string data = [] {
    std::string bytes(kReferenceBytes, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<char>(i * 131 + (i >> 8));
    }
    return bytes;
  }();
  const auto start = Clock::now();
  const std::string digest = sha256_hex(data);
  const double ms = seconds_since(start) * 1e3;
  if (digest.size() != 64) {
    throw std::logic_error("reference digest is malformed");
  }
  return ms;
}

void PassTimings::add_pass(const Pass& pass) {
  // A pass that ended before its first unit failed, and the run with it;
  // its speed is taken as nominal.
  const double reference_ms = std::accumulate(pass.reference_ms.begin(),
                                              pass.reference_ms.end(), 0.0);
  speed.push_back(pass.reference_ms.empty()
                      ? 1.0
                      : kReferenceNominalMs *
                            static_cast<double>(pass.reference_ms.size()) /
                            reference_ms);
  reference_s.push_back(reference_ms * 1e-3);
  setup_s.push_back(pass.setup_s);
  wall_s.push_back(pass.wall_s);
  cpu_s.push_back(pass.cpu_s);
  unit_ms.push_back(pass.unit_ms);
  units += pass.unit_ms.size();
}

std::vector<double> PassTimings::nominal_wall_s() const {
  std::vector<double> walls;
  for (std::size_t i = 0; i < wall_s.size(); ++i) {
    walls.push_back((wall_s[i] - reference_s[i]) * speed[i]);
  }
  return walls;
}

void add_end_to_end(const PassTimings& timings, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> unit_ms;
  std::string passes =
      "pass set-up s/wall s/median unit ms/host speed, as measured:";
  for (std::size_t i = 0; i < timings.wall_s.size(); ++i) {
    const double speed = timings.speed[i];
    const std::vector<double>& units = timings.unit_ms[i];
    setup_s.push_back(timings.setup_s[i] * speed);
    for (const double unit : units) {
      unit_ms.push_back(unit * speed);
    }
    passes += ' ' + format_number(timings.setup_s[i]) + '/' +
              format_number(timings.wall_s[i]);
    if (!units.empty()) {
      passes += '/' + format_number(median(units));
    }
    passes += '/' + format_number(speed);
  }
  report.add("setup_s", median(setup_s), "s");
  report.add("wall_s", median(timings.nominal_wall_s()), "s");
  report.add("unit_p50_ms", median(unit_ms), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");

  const std::optional<double> supported =
      highest_supported_percentile(unit_ms.size());
  report.note("units timed: " + std::to_string(unit_ms.size()) + " over " +
              std::to_string(timings.wall_s.size()) + " passes; p95 has " +
              std::to_string(samples_beyond(unit_ms.size(), 95.0)) +
              " samples beyond it; highest supported percentile: " +
              (supported ? format_number(*supported) : std::string("none")));
  if (!supported || *supported < 95.0) {
    report.fail_check("the unit p95 needs at least 10 samples beyond it, "
                      "have " +
                      std::to_string(samples_beyond(unit_ms.size(), 95.0)));
  } else {
    report.note("unit p95 ms at the nominal host speed (not a metric: it "
                "follows the host's noise bursts, see STEADINESS.md): " +
                format_number(percentile(unit_ms, 95.0)));
  }
  report.note(passes);
}

void add_trace_summary(const PassTimings& untraced, const PassTimings& traced,
                       Report& report) {
  report.add("proc.cpu_s", median(untraced.cpu_s), "s");
  report.add("tracing.overhead_pct",
             (median(traced.nominal_wall_s()) /
                  median(untraced.nominal_wall_s()) -
              1.0) *
                 100.0,
             "%");
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> catalog = {
      {"analysis.prepare_ms", "ms"},
      {"analysis.cell_ms", "ms"},
      {"core.policy.allocate_us", "us"},
      {"core.policy.allocate_calls", "count"},
      {"core.context_build_ms", "ms"},
      {"core.degradation_us", "us"},
      {"sim.iteration_us", "us"},
      {"sim.cell_self_ms", "ms"},
      {"core.endpoint.serialize_us", "us"},
      {"core.endpoint.parse_us", "us"},
      {"core.endpoint.daemon_parse_us", "us"},
      {"core.endpoint.bytes_per_round", "bytes"},
      {"net.round_self_ms", "ms"},
      {"net.protocol_errors", "count"},
      {"net.policies_resent", "count"},
      {"facility.trace_ms", "ms"},
      {"facility.run_ms", "ms"},
      {"core.governor.schedule_us", "us"},
      {"facility.jobs_completed", "count"},
      {"facility.revisions", "count"},
      {"facility.admission_rejections", "count"},
      {"facility.sla_violations", "count"},
      {"unit.unattributed_pct", "%"},
      {"proc.cpu_s", "s"},
      {"tracing.overhead_pct", "%"},
  };
  return catalog;
}

void complete_per_layer(Report& report) {
  std::vector<Metric> ordered;
  std::size_t reported = 0;
  for (const MetricSpec& spec : per_layer_metrics()) {
    const auto found =
        std::find_if(report.metrics.begin(), report.metrics.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (found == report.metrics.end()) {
      ordered.push_back({std::string(spec.name), 0.0, std::string(spec.unit)});
      continue;
    }
    if (found->unit != spec.unit) {
      throw std::logic_error("metric " + found->name + " reported in " +
                             found->unit);
    }
    ordered.push_back(*found);
    ++reported;
  }
  if (reported != report.metrics.size()) {
    throw std::logic_error("a traced metric is missing from the catalog");
  }
  report.metrics = std::move(ordered);
}

bool want_another_pass(Clock::time_point start, double seconds,
                       std::size_t passes, std::size_t min_passes,
                       std::size_t units, std::size_t min_units) {
  const double elapsed = seconds_since(start);
  return elapsed < seconds ||
         (elapsed < kMaxRunSeconds &&
          (passes < min_passes || units < min_units));
}

}  // namespace perfbench
