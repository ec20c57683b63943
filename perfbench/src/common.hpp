#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The runner's command line (see README.md).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupts one output of the workload before it is checked, so the
  /// tests can prove a wrong result fails the run.
  bool inject_wrong_output = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1
/// [--inject-wrong-output]`. Throws std::invalid_argument on anything
/// else, so a typo never silently runs defaults.
[[nodiscard]] Options parse_options(const std::vector<std::string>& args);

/// Deterministic child seed: pass `index` of a run seeded with `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index) noexcept;

/// Nearest-rank percentile of `samples` (p in (0, 100]). Throws on an
/// empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

/// How many of `count` samples lie strictly beyond the nearest-rank
/// p-th percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double p);

/// The percentile rule for tail latency: of the candidates 99.9, 99, 95,
/// 90 and 75, the highest with at least `min_beyond` samples beyond it;
/// nullopt when even p75 is not supported.
[[nodiscard]] std::optional<double> highest_supported_percentile(
    std::size_t count, std::size_t min_beyond = 10);

/// Failed-over-attempted accounting. A unit whose output check fails, or
/// that throws, is failed.
class UnitLedger {
 public:
  void record(bool ok) noexcept {
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's result: the JSON line the benchmark contract asks for.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON (sample counts, check
  /// outcomes, the unattributed remainder).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// A failed output check: the run is not correct and says why.
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  [[nodiscard]] std::string to_json() const;
};

/// Shortest round-tripping decimal for a double ("1.2034").
[[nodiscard]] std::string format_number(double value);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();
/// User + system CPU time of this process so far, seconds.
[[nodiscard]] double cpu_seconds();

/// The host's speed drifts by up to 2x in phases of seconds to minutes
/// (see STEADINESS.md), so every pass also times a fixed reference
/// computation, sha256 over kReferenceBytes of fixed data, before each of
/// its units. The reference is the benchmark's own code: no change to the
/// libraries moves it, only the host's speed does. A pass's timings are
/// scaled to the speed at which one reference sample takes
/// kReferenceNominalMs (this VM's 4-vCPU Intel Xeon host took 0.7-1.4 ms).
inline constexpr std::size_t kReferenceBytes = 128 * 1024;
inline constexpr double kReferenceNominalMs = 1.0;
/// Times one reference sample, ms.
[[nodiscard]] double time_reference();

/// What one pass of a workload measured.
struct Pass {
  double setup_s = 0.0;  ///< Pass launch to the first timed unit.
  double wall_s = 0.0;   ///< Pass launch to pass end.
  double cpu_s = 0.0;    ///< Process CPU time the pass used.
  std::vector<double> unit_ms;
  /// Reference samples taken during the pass, one before each unit,
  /// outside set-up and the units' timings.
  std::vector<double> reference_ms;

  void sample_host() { reference_ms.push_back(time_reference()); }
};

/// Units the tail percentile needs: p95 with 10 samples beyond it.
inline constexpr std::size_t kTailUnits = 200;

/// Per-pass timings every workload collects, and the end-to-end metrics
/// derived from them.
struct PassTimings {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::vector<double>> unit_ms;  ///< Each pass's units.
  /// Each pass's host speed: kReferenceNominalMs over the mean of its
  /// reference samples, so 1 at the nominal speed and 0.7 on a host
  /// running 1/0.7 times slower.
  std::vector<double> speed;
  std::vector<double> reference_s;  ///< Time each pass spent sampling.
  std::size_t units = 0;            ///< Units over all passes.

  void add_pass(const Pass& pass);
  /// Each pass's wall without its reference samples, at the nominal
  /// host speed.
  [[nodiscard]] std::vector<double> nominal_wall_s() const;
};

/// Adds to `report` the end-to-end metrics of a run, each pass scaled to
/// the nominal host speed:
///   setup_s      the median pass set-up;
///   wall_s       the median pass wall, reference samples excluded;
///   unit_p50_ms  the median unit over every pass;
///   peak_rss_mb  the process's peak resident set.
/// Notes give the nearest-rank p95 of the units, with the sample count
/// behind it, and every pass's set-up, wall, median unit and speed as
/// measured. The tail is not a metric: units of one workload cost about
/// the same, so it measures the host's noise bursts. Fewer than
/// kTailUnits units fails the run: the tail would be a guess.
void add_end_to_end(const PassTimings& timings, Report& report);

/// Adds a traced run's proc.cpu_s (median CPU seconds of an untraced
/// pass) and tracing.overhead_pct (median traced pass wall against median
/// untraced pass wall, both at the nominal host speed).
void add_trace_summary(const PassTimings& untraced, const PassTimings& traced,
                       Report& report);

/// Every per-layer metric of a traced run, in report order, with its
/// unit. A workload that does not exercise a layer reports it as 0.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Puts a traced report's metrics in catalog order, adding the layers the
/// workload did not exercise as 0. Throws on a metric missing from the
/// catalog.
void complete_per_layer(Report& report);

/// True while a time-bounded run should start another pass: before the
/// window closes, or while fewer than `min_passes` passes or `min_units`
/// units have run -- but never past kMaxRunSeconds, so a run whose units
/// keep failing still ends (and its short tail then fails the run).
inline constexpr double kMaxRunSeconds = 120.0;
[[nodiscard]] bool want_another_pass(Clock::time_point start,
                                     double seconds, std::size_t passes,
                                     std::size_t min_passes,
                                     std::size_t units,
                                     std::size_t min_units);

/// The timed part of a run: passes until want_another_pass says stop,
/// each offered its own seed derive_seed(options.seed, index). An
/// untraced run needs 3 passes and kTailUnits units; a traced run
/// alternates untraced and traced passes (odd indices traced) and needs 4
/// passes. `run_pass(seed, index, traced)` returns the Pass it measured.
template <typename RunPass>
void run_passes(const Options& options, PassTimings& untraced,
                PassTimings& traced, RunPass&& run_pass) {
  const auto start = Clock::now();
  for (std::size_t index = 0;
       want_another_pass(start, options.seconds, index,
                         options.trace ? 4 : 3, untraced.units,
                         options.trace ? 0 : kTailUnits);
       ++index) {
    const bool traced_pass = options.trace && index % 2 == 1;
    const Pass pass =
        run_pass(derive_seed(options.seed, index), index, traced_pass);
    (traced_pass ? traced : untraced).add_pass(pass);
  }
}

}  // namespace perfbench
