#include "hw/node.hpp"

#include <gtest/gtest.h>

#include "hw/quartz_spec.hpp"
#include "util/error.hpp"

namespace ps::hw {
namespace {

NodeModel make_node(double eta = 1.0) { return NodeModel(0, eta); }

TEST(NodeTest, CapLimitsMatchQuartzSpec) {
  NodeModel node = make_node();
  EXPECT_DOUBLE_EQ(node.tdp(), 2.0 * QuartzSpec::kTdpPerSocketW +
                                   QuartzSpec::kDramPowerPerNodeW);
  EXPECT_DOUBLE_EQ(node.min_cap(), 2.0 * QuartzSpec::kMinRaplPerSocketW +
                                       QuartzSpec::kDramPowerPerNodeW);
}

TEST(NodeTest, SetCapSplitsAcrossPackages) {
  NodeModel node = make_node();
  node.set_power_cap(216.0);
  // (216 - 16 dram) / 2 = 100 per package.
  EXPECT_DOUBLE_EQ(node.package(0).power_limit(), 100.0);
  EXPECT_DOUBLE_EQ(node.package(1).power_limit(), 100.0);
  EXPECT_DOUBLE_EQ(node.power_cap(), 216.0);
}

TEST(NodeTest, CapBelowFloorClampsUp) {
  NodeModel node = make_node();
  node.set_power_cap(100.0);
  EXPECT_DOUBLE_EQ(node.power_cap(), node.min_cap());
}

TEST(NodeTest, UncappedComputeRunsAtMaxFrequency) {
  NodeModel node = make_node();
  node.set_power_cap(node.tdp());
  const PhaseResult result =
      node.run_compute(1.0, 0.25, VectorWidth::kYmm256);
  EXPECT_DOUBLE_EQ(result.frequency_ghz,
                   node.params().power.max_frequency_ghz);
}

TEST(NodeTest, PowerDrawRespectsCap) {
  NodeModel node = make_node();
  for (double cap : {160.0, 180.0, 200.0, 220.0}) {
    node.set_power_cap(cap);
    const PhaseResult result =
        node.run_compute(1.0, 8.0, VectorWidth::kYmm256);
    EXPECT_LE(result.power_watts, cap + 0.5) << "cap=" << cap;
  }
}

TEST(NodeTest, TighterCapSlowsComputeBoundWork) {
  NodeModel node = make_node();
  const PhaseResult fast =
      node.preview_compute(1.0, 32.0, VectorWidth::kYmm256, 230.0);
  const PhaseResult slow =
      node.preview_compute(1.0, 32.0, VectorWidth::kYmm256, 170.0);
  EXPECT_GT(slow.seconds, fast.seconds);
  EXPECT_LT(slow.frequency_ghz, fast.frequency_ghz);
}

TEST(NodeTest, TighterCapBarelySlowsMemoryBoundWork) {
  NodeModel node = make_node();
  const PhaseResult fast =
      node.preview_compute(1.0, 0.25, VectorWidth::kYmm256, 230.0);
  const PhaseResult slow =
      node.preview_compute(1.0, 0.25, VectorWidth::kYmm256, 170.0);
  const double slowdown = slow.seconds / fast.seconds - 1.0;
  EXPECT_GT(slowdown, 0.0);
  EXPECT_LT(slowdown, 0.10);  // bandwidth floor keeps the hit small
}

TEST(NodeTest, Fig4CalibrationUncappedPowerBand) {
  // Paper Fig. 4: uncapped node power spans ~209-232 W across the
  // intensity sweep, peaking in the mid-intensity range.
  NodeModel node = make_node();
  double peak_power = 0.0;
  double peak_intensity = 0.0;
  for (double intensity : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const PhaseResult result = node.preview_compute(
        1.0, intensity, VectorWidth::kYmm256, node.tdp());
    EXPECT_GE(result.power_watts, 205.0) << "I=" << intensity;
    EXPECT_LE(result.power_watts, 235.0) << "I=" << intensity;
    if (result.power_watts > peak_power) {
      peak_power = result.power_watts;
      peak_intensity = intensity;
    }
  }
  EXPECT_GE(peak_intensity, 4.0);
  EXPECT_LE(peak_intensity, 16.0);
}

TEST(NodeTest, EnergyEqualsPowerTimesTime) {
  NodeModel node = make_node();
  node.set_power_cap(200.0);
  const PhaseResult result =
      node.run_compute(2.0, 4.0, VectorWidth::kYmm256);
  EXPECT_NEAR(result.energy_joules, result.power_watts * result.seconds,
              1e-9);
}

TEST(NodeTest, RaplCountersTrackConsumedEnergy) {
  NodeModel node = make_node();
  node.set_power_cap(node.tdp());
  double expected = 0.0;
  for (int i = 0; i < 10; ++i) {
    expected += node.run_compute(1.0, 8.0, VectorWidth::kYmm256)
                    .energy_joules;
    expected += node.run_poll(0.01).energy_joules;
  }
  EXPECT_NEAR(node.read_energy_joules(), expected, 0.01);
}

TEST(NodeTest, PollPowerBelowCapAndAboveIdle) {
  NodeModel node = make_node();
  const double idle_floor = 2.0 * node.params().power.idle_watts +
                            node.params().dram_watts;
  for (double cap : {160.0, 200.0, 240.0}) {
    const double power = node.poll_power(cap);
    EXPECT_LE(power, cap + 0.5);
    EXPECT_GT(power, idle_floor);
  }
}

TEST(NodeTest, PollDrawsNearStreamingPowerWhenUncapped) {
  NodeModel node = make_node();
  const double poll = node.poll_power(node.tdp());
  const PhaseResult stream =
      node.preview_compute(1.0, 0.25, VectorWidth::kYmm256, node.tdp());
  EXPECT_NEAR(poll, stream.power_watts, 6.0);
}

TEST(NodeTest, LeakyNodeSlowerUnderSameCap) {
  NodeModel nominal(0, 1.0);
  NodeModel leaky(1, 1.3);
  const PhaseResult a =
      nominal.preview_compute(1.0, 32.0, VectorWidth::kYmm256, 180.0);
  const PhaseResult b =
      leaky.preview_compute(1.0, 32.0, VectorWidth::kYmm256, 180.0);
  EXPECT_GT(a.frequency_ghz, b.frequency_ghz);
}

TEST(NodeTest, PreviewDoesNotMutateState) {
  NodeModel node = make_node();
  node.set_power_cap(200.0);
  static_cast<void>(
      node.preview_compute(1.0, 8.0, VectorWidth::kYmm256, 160.0));
  EXPECT_DOUBLE_EQ(node.power_cap(), 200.0);
  EXPECT_NEAR(node.read_energy_joules(), 0.0, 1e-9);
}

TEST(NodeTest, InvalidInputsThrow) {
  NodeModel node = make_node();
  EXPECT_THROW(node.set_power_cap(0.0), ps::InvalidArgument);
  EXPECT_THROW(node.set_power_cap(10.0), ps::InvalidArgument);  // < dram
  EXPECT_THROW(node.run_poll(-1.0), ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(node.preview_compute(
                   1.0, 1.0, VectorWidth::kYmm256, 5.0)),
               ps::InvalidArgument);
  EXPECT_THROW(NodeModel(0, 0.0), ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(node.package(2)), ps::InvalidArgument);
}


void expect_same_phase(const PhaseResult& a, const PhaseResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.frequency_ghz, b.frequency_ghz);
  EXPECT_EQ(a.power_watts, b.power_watts);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.mem_utilization, b.mem_utilization);
}

TEST(NodeSolveCacheTest, CachedAndUncachedRunsAreBitIdentical) {
  // Every step is checked against a cold model: a freshly built node with
  // the same cap has an empty memo, so its first solve is the solver's
  // own output. Any divergence means the cache served a stale or
  // differently-rounded solution. `ledger` accrues the cold solutions so
  // the energy counters can be compared too.
  NodeModel cached = make_node();
  NodeModel ledger = make_node();
  const double caps[] = {240.0, 190.0, 190.0, 150.0, 240.0, 190.0};
  for (const double cap : caps) {
    cached.set_power_cap(cap);
    for (int repeat = 0; repeat < 3; ++repeat) {
      NodeModel cold = make_node();
      cold.set_power_cap(cap);
      const PhaseResult compute =
          cold.run_compute(1.0, 8.0, VectorWidth::kYmm256);
      expect_same_phase(cached.run_compute(1.0, 8.0, VectorWidth::kYmm256),
                        compute);
      ledger.accrue_phase(compute);
      const PhaseResult poll = cold.run_poll(0.25);
      expect_same_phase(cached.run_poll(0.25), poll);
      ledger.accrue_phase(poll);
    }
  }
  EXPECT_EQ(cached.read_energy_joules(), ledger.read_energy_joules());
}

TEST(NodeSolveCacheTest, CacheMissesOnPhaseShapeChange) {
  NodeModel node = make_node();
  node.set_power_cap(190.0);
  const PhaseResult wide = node.run_compute(1.0, 8.0, VectorWidth::kYmm256);
  const PhaseResult narrow = node.run_compute(1.0, 8.0, VectorWidth::kXmm128);
  EXPECT_NE(wide.seconds, narrow.seconds);
  // Returning to the first shape re-solves (single-entry cache) but must
  // land on the exact same solution.
  expect_same_phase(wide, node.run_compute(1.0, 8.0, VectorWidth::kYmm256));
}

TEST(NodeSolveCacheTest, CacheInvalidatesOnCapAndFrequencyChanges) {
  NodeModel node = make_node();
  node.set_power_cap(240.0);
  const PhaseResult uncapped = node.run_compute(1.0, 8.0, VectorWidth::kYmm256);
  node.set_power_cap(160.0);
  const PhaseResult capped = node.run_compute(1.0, 8.0, VectorWidth::kYmm256);
  EXPECT_GT(capped.seconds, uncapped.seconds);
  node.set_frequency_cap(1.5);
  const PhaseResult dvfs = node.run_compute(1.0, 8.0, VectorWidth::kYmm256);
  EXPECT_LE(dvfs.frequency_ghz, 1.5 + 1e-12);
  EXPECT_GT(dvfs.seconds, capped.seconds);
}

TEST(NodeSolveCacheTest, OutOfBandPackageWriteMissesTheCache) {
  // PlatformIO programs package limits directly, bypassing
  // set_power_cap. The memo key samples the live registers, so the next
  // solve must see the new limit instead of serving the stale solution.
  NodeModel node = make_node();
  node.set_power_cap(240.0);
  static_cast<void>(node.run_compute(1.0, 8.0, VectorWidth::kYmm256));
  node.package(0).set_power_limit(70.0);
  node.package(1).set_power_limit(70.0);
  NodeModel fresh = make_node();
  fresh.set_power_cap(240.0);
  fresh.package(0).set_power_limit(70.0);
  fresh.package(1).set_power_limit(70.0);
  expect_same_phase(node.run_compute(1.0, 8.0, VectorWidth::kYmm256),
                    fresh.run_compute(1.0, 8.0, VectorWidth::kYmm256));
}

TEST(NodeSolveCacheTest, RunComputeEqualsSolutionPlusAccrue) {
  NodeModel split = make_node();
  NodeModel fused = make_node();
  split.set_power_cap(190.0);
  fused.set_power_cap(190.0);
  const PhaseResult solution =
      split.compute_solution(1.0, 8.0, VectorWidth::kYmm256);
  split.accrue_phase(solution);
  expect_same_phase(solution,
                    fused.run_compute(1.0, 8.0, VectorWidth::kYmm256));
  EXPECT_EQ(split.read_energy_joules(), fused.read_energy_joules());
}

TEST(NodeSolveCacheTest, PollMemoScalesEnergyPerCall) {
  // One memoized poll solution serves every duration; each call must
  // equal a cold model's first poll of that duration.
  NodeModel cached = make_node();
  NodeModel ledger = make_node();
  cached.set_power_cap(170.0);
  for (const double seconds : {0.5, 0.125, 0.0, 2.0}) {
    NodeModel cold = make_node();
    cold.set_power_cap(170.0);
    const PhaseResult a = cached.run_poll(seconds);
    const PhaseResult b = cold.run_poll(seconds);
    expect_same_phase(a, b);
    EXPECT_EQ(a.energy_joules, a.power_watts * seconds);
    ledger.accrue_phase(b);
  }
  EXPECT_EQ(cached.read_energy_joules(), ledger.read_energy_joules());
}

/// Everything a NodeModel copy shares with its source, observed through
/// the registers and the solve memo.
struct NodeRegisterState {
  double limits[2] = {0.0, 0.0};
  std::uint32_t counters[2] = {0, 0};
  std::uint64_t raw_limits[2] = {0, 0};
};

NodeRegisterState register_state(NodeModel& node) {
  NodeRegisterState state;
  for (std::size_t s = 0; s < 2; ++s) {
    state.limits[s] = node.package(s).power_limit();
    state.counters[s] = node.package(s).read_energy_counter();
    state.raw_limits[s] =
        node.package(s).msr_file().read(msr::kPkgPowerLimit);
  }
  return state;
}

TEST(NodeRegisterTest, CopiedNodeIsIndependentOfItsSource) {
  NodeModel original = make_node(1.1);
  original.set_power_cap(200.0);
  static_cast<void>(original.run_compute(1.0, 8.0, VectorWidth::kYmm256));
  static_cast<void>(original.run_poll(0.5));
  const PhaseResult& memo =
      original.compute_solution(1.0, 8.0, VectorWidth::kYmm256);
  const PhaseResult memo_before = memo;
  const NodeRegisterState before = register_state(original);

  NodeModel copy = original;
  copy.set_power_cap(150.0);
  copy.package(1).set_power_limit(70.0);
  for (int i = 0; i < 5; ++i) {
    static_cast<void>(copy.run_compute(2.0, 1.0, VectorWidth::kXmm128));
    static_cast<void>(copy.run_poll(1.0));
  }
  static_cast<void>(copy.read_energy_joules());

  const NodeRegisterState after = register_state(original);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(after.limits[s], before.limits[s]) << "socket " << s;
    EXPECT_EQ(after.counters[s], before.counters[s]) << "socket " << s;
    EXPECT_EQ(after.raw_limits[s], before.raw_limits[s]) << "socket " << s;
  }
  // The source's memo slot was not rewritten by the copy's solves.
  expect_same_phase(memo, memo_before);
  EXPECT_NE(register_state(copy).counters[0], before.counters[0]);
  EXPECT_NE(copy.power_cap(), original.power_cap());
}

TEST(NodeRegisterTest, PackageLimitsStayQuantizedToEighthWatts) {
  NodeModel node = make_node();
  const double dram = node.params().dram_watts;
  // 2 x 90.07 W of package budget: each limit rounds to 90.125 W.
  const double applied = node.set_power_cap(dram + 2.0 * 90.07);
  EXPECT_EQ(node.package(0).power_limit(), 90.125);
  EXPECT_EQ(node.package(1).power_limit(), 90.125);
  EXPECT_EQ(applied, dram + 2.0 * 90.125);
  EXPECT_EQ(node.power_cap(), applied);
  // 721 power units, enable (bit 15) and clamp (bit 16) set.
  EXPECT_EQ(node.package(0).msr_file().read(msr::kPkgPowerLimit),
            721ULL | (1ULL << 15) | (1ULL << 16));
  // Units register: 2^-3 W, 2^-14 J, 2^-10 s.
  EXPECT_EQ(node.package(0).msr_file().read(msr::kRaplPowerUnit),
            0xa0e03ULL);
}

TEST(NodeRegisterTest, RawEnergyCounterWrapsAt32Bits) {
  NodeModel node = make_node();
  RaplPackageDomain& package = node.package(0);
  const double unit = package.energy_unit_joules();
  package.accumulate_energy(4294967280.0 * unit);  // 2^32 - 16 units
  EXPECT_EQ(package.read_energy_counter(), 4294967280u);
  EXPECT_EQ(package.read_energy_joules(), 4294967280.0 * unit);
  package.accumulate_energy(32.0 * unit);  // wraps to 16
  EXPECT_EQ(package.read_energy_counter(), 16u);
  EXPECT_EQ(package.read_energy_joules(), 4294967312.0 * unit);
  // The other package's counter never moved.
  EXPECT_EQ(node.package(1).read_energy_counter(), 0u);
}

TEST(NodeTest, FixedPointSolutionIsSelfConsistent) {
  NodeModel node = make_node();
  const PhaseResult result =
      node.preview_compute(1.0, 8.0, VectorWidth::kYmm256, 190.0);
  // Utilizations must describe a valid roofline state.
  EXPECT_LE(result.cpu_utilization, 1.0);
  EXPECT_LE(result.mem_utilization, 1.0);
  EXPECT_GE(std::max(result.cpu_utilization, result.mem_utilization),
            1.0 - 1e-9);
}

}  // namespace
}  // namespace ps::hw
