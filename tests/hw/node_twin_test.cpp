// Solver twins: NodeModel::same_solver and the `twin` argument of
// compute_solution. A borrowed solution must be the node's own solve bit
// for bit, and a twin that differs in anything the solver reads (an eta,
// the frequency cap, a NodeParams field, the package limits, the phase)
// must never lend its memo. Each case compares against a cold node: a
// freshly built model whose first solve is the solver's own output.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "hw/node.hpp"

namespace ps::hw {
namespace {

constexpr double kGigabytes = 2.0;
constexpr double kIntensity = 8.0;
constexpr VectorWidth kWidth = VectorWidth::kYmm256;

void expect_same_phase(const PhaseResult& a, const PhaseResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.frequency_ghz, b.frequency_ghz);
  EXPECT_EQ(a.power_watts, b.power_watts);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.mem_utilization, b.mem_utilization);
}

/// A node's own answer for the phase under `cap`: a cold model's solve.
PhaseResult cold_solve(double eta, const NodeParams& params, double cap,
                       double gigabytes = kGigabytes) {
  NodeModel cold(7, eta, params);
  cold.set_power_cap(cap);
  return cold.compute_solution(gigabytes, kIntensity, kWidth);
}

TEST(NodeTwinTest, SameSolverCoversParamsEtasAndFrequencyCap) {
  NodeModel a(0, 1.0);
  NodeModel b(1, 1.0);
  EXPECT_TRUE(a.same_solver(b));
  EXPECT_TRUE(a.same_solver(a));
  // Limits and energy are solver inputs or outputs, not solver identity.
  b.set_power_cap(170.0);
  static_cast<void>(b.run_compute(kGigabytes, kIntensity, kWidth));
  EXPECT_TRUE(a.same_solver(b));

  EXPECT_FALSE(a.same_solver(NodeModel(2, 1.05)));
  EXPECT_FALSE(a.same_solver(NodeModel(3, 1.0, 1.05)));
  NodeModel slow(4, 1.0);
  slow.set_frequency_cap(2.0);
  EXPECT_FALSE(a.same_solver(slow));
  NodeParams leaky;
  leaky.power.idle_watts += 1.0;
  EXPECT_FALSE(a.same_solver(NodeModel(5, 1.0, leaky)));
  NodeParams aware;
  aware.cap_split = CapSplitPolicy::kEfficiencyAware;
  EXPECT_FALSE(a.same_solver(NodeModel(6, 1.0, aware)));
}

TEST(NodeTwinTest, BorrowedSolutionIsTheNodesOwnSolve) {
  for (const double cap : {240.0, 190.0, 150.0}) {
    NodeModel twin(0, 1.0);
    NodeModel node(1, 1.0);
    twin.set_power_cap(cap);
    node.set_power_cap(cap);
    static_cast<void>(twin.compute_solution(kGigabytes, kIntensity, kWidth));
    const PhaseResult borrowed =
        node.compute_solution(kGigabytes, kIntensity, kWidth, &twin);
    expect_same_phase(borrowed, cold_solve(1.0, NodeParams{}, cap));
    // The borrowed entry is the node's memo from now on.
    expect_same_phase(node.compute_solution(kGigabytes, kIntensity, kWidth),
                      borrowed);
  }
}

TEST(NodeTwinTest, TwinWithoutASolutionIsIgnored) {
  NodeModel twin(0, 1.0);
  NodeModel node(1, 1.0);
  node.set_power_cap(180.0);
  twin.set_power_cap(180.0);
  expect_same_phase(
      node.compute_solution(kGigabytes, kIntensity, kWidth, &twin),
      cold_solve(1.0, NodeParams{}, 180.0));
  // A node passed as its own twin solves for itself.
  NodeModel self(2, 1.0);
  self.set_power_cap(160.0);
  expect_same_phase(
      self.compute_solution(kGigabytes, kIntensity, kWidth, &self),
      cold_solve(1.0, NodeParams{}, 160.0));
}

/// Primes `twin` on the phase under `twin_cap`, then asks `node` (eta
/// `eta`, `params`, capped at `cap`) for `gigabytes` with `twin` offered.
/// The answer must be the node's own solve, and the twin's memo must hold
/// a different solution (or the case would not show a wrong borrow).
void expect_no_borrow(NodeModel& twin, double twin_cap, double eta,
                      const NodeParams& params, double cap,
                      double gigabytes = kGigabytes,
                      const std::function<void(NodeModel&)>& tweak = {}) {
  twin.set_power_cap(twin_cap);
  const PhaseResult lent =
      twin.compute_solution(kGigabytes, kIntensity, kWidth);
  NodeModel node(1, eta, params);
  node.set_power_cap(cap);
  if (tweak) {
    tweak(node);
  }
  NodeModel cold(7, eta, params);
  cold.set_power_cap(cap);
  if (tweak) {
    tweak(cold);
  }
  const PhaseResult own = cold.compute_solution(gigabytes, kIntensity, kWidth);
  ASSERT_TRUE(lent.seconds != own.seconds ||
              lent.power_watts != own.power_watts);
  expect_same_phase(
      node.compute_solution(gigabytes, kIntensity, kWidth, &twin), own);
}

TEST(NodeTwinTest, NoBorrowAcrossEtas) {
  NodeModel twin(0, 1.0);
  expect_no_borrow(twin, 170.0, 1.1, NodeParams{}, 170.0);
  NodeModel leaky_package(0, 1.0, 1.1);
  expect_no_borrow(leaky_package, 170.0, 1.0, NodeParams{}, 170.0);
}

TEST(NodeTwinTest, NoBorrowAcrossFrequencyCaps) {
  NodeModel twin(0, 1.0);
  twin.set_frequency_cap(1.6);
  expect_no_borrow(twin, 240.0, 1.0, NodeParams{}, 240.0);
  // The node is the capped one this time.
  NodeModel uncapped(0, 1.0);
  expect_no_borrow(uncapped, 240.0, 1.0, NodeParams{}, 240.0, kGigabytes,
                   [](NodeModel& node) { node.set_frequency_cap(1.6); });
}

TEST(NodeTwinTest, NoBorrowAcrossAnyNodeParamsField) {
  const std::vector<std::pair<std::string, std::function<void(NodeParams&)>>>
      fields = {
          {"power.idle_watts", [](NodeParams& p) { p.power.idle_watts += 2.0; }},
          {"power.max_dynamic_watts",
           [](NodeParams& p) { p.power.max_dynamic_watts += 3.0; }},
          {"power.exponent", [](NodeParams& p) { p.power.exponent = 2.8; }},
          {"roofline.memory_bandwidth_gbs",
           [](NodeParams& p) { p.roofline.memory_bandwidth_gbs = 140.0; }},
          {"roofline.active_cores",
           [](NodeParams& p) { p.roofline.active_cores = 32; }},
          {"roofline.bandwidth_frequency_floor",
           [](NodeParams& p) { p.roofline.bandwidth_frequency_floor = 0.6; }},
          {"activity.base", [](NodeParams& p) { p.activity.base = 0.7; }},
          {"activity.mem_weight",
           [](NodeParams& p) { p.activity.mem_weight = 0.2; }},
          {"dram_watts", [](NodeParams& p) { p.dram_watts += 4.0; }},
      };
  for (const auto& [name, mutate] : fields) {
    SCOPED_TRACE(name);
    NodeParams params;
    mutate(params);
    NodeModel twin(0, 1.0);
    // The node's cap is the twin's package limits plus its own DRAM, so
    // both memo keys carry the same register values.
    expect_no_borrow(twin, 170.0, 1.0, params,
                     170.0 - NodeParams{}.dram_watts + params.dram_watts);
  }
}

TEST(NodeTwinTest, NoBorrowAcrossPackageLimits) {
  NodeModel twin(0, 1.0);
  expect_no_borrow(twin, 200.0, 1.0, NodeParams{}, 170.0);
  // Out-of-band register writes count too.
  NodeModel poked(0, 1.0);
  expect_no_borrow(poked, 200.0, 1.0, NodeParams{}, 200.0, kGigabytes,
                   [](NodeModel& node) {
                     node.package(1).set_power_limit(70.0);
                   });
}

TEST(NodeTwinTest, NoBorrowAcrossPhases) {
  NodeModel twin(0, 1.0);
  expect_no_borrow(twin, 190.0, 1.0, NodeParams{}, 190.0, 3.0 * kGigabytes);
  NodeModel narrow(0, 1.0);
  narrow.set_power_cap(190.0);
  const PhaseResult lent =
      narrow.compute_solution(kGigabytes, kIntensity, VectorWidth::kXmm128);
  const PhaseResult own = cold_solve(1.0, NodeParams{}, 190.0);
  ASSERT_NE(lent.seconds, own.seconds);
  NodeModel node(1, 1.0);
  node.set_power_cap(190.0);
  expect_same_phase(
      node.compute_solution(kGigabytes, kIntensity, kWidth, &narrow), own);
}

TEST(NodeTwinTest, BorrowedPollIsTheNodesOwnSolve) {
  for (const double cap : {240.0, 190.0, 150.0}) {
    NodeModel twin(0, 1.0);
    NodeModel node(1, 1.0);
    NodeModel cold(7, 1.0);
    twin.set_power_cap(cap);
    node.set_power_cap(cap);
    cold.set_power_cap(cap);
    static_cast<void>(twin.run_poll(0.5));
    const PhaseResult borrowed = node.run_poll(0.25, &twin);
    expect_same_phase(borrowed, cold.run_poll(0.25));
    // The borrowed entry is the node's memo from now on, and the energy
    // it accrued is the cold node's to the last counter bit.
    expect_same_phase(node.run_poll(0.125), cold.run_poll(0.125));
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(node.package(s).read_energy_counter(),
                cold.package(s).read_energy_counter());
      EXPECT_EQ(node.package(s).fractional_energy_lsb(),
                cold.package(s).fractional_energy_lsb());
    }
  }
}

/// True when the two poll solutions differ, so a wrong borrow would show.
bool polls_differ(const PhaseResult& a, const PhaseResult& b) {
  return a.power_watts != b.power_watts || a.frequency_ghz != b.frequency_ghz;
}

TEST(NodeTwinTest, PollTwinWithADifferentEtaIsRefused) {
  for (const double cap : {240.0, 170.0}) {
    NodeModel twin(0, 1.0);
    twin.set_power_cap(cap);
    const PhaseResult lent = twin.run_poll(0.5);
    for (const auto& [eta0, eta1] : {std::pair{1.1, 1.1}, {1.0, 1.1}}) {
      NodeModel node(1, eta0, eta1);
      NodeModel cold(7, eta0, eta1);
      node.set_power_cap(cap);
      cold.set_power_cap(cap);
      const PhaseResult own = cold.run_poll(0.5);
      // The twin's memo holds the same key but another solver's answer.
      ASSERT_TRUE(polls_differ(lent, own));
      expect_same_phase(node.run_poll(0.5, &twin), own);
    }
  }
}

TEST(NodeTwinTest, PollTwinUnderOtherLimitsIsRefused) {
  NodeModel twin(0, 1.0);
  twin.set_power_cap(200.0);
  const PhaseResult lent = twin.run_poll(0.5);
  NodeModel node(1, 1.0);
  NodeModel cold(7, 1.0);
  node.set_power_cap(170.0);
  cold.set_power_cap(170.0);
  const PhaseResult own = cold.run_poll(0.5);
  ASSERT_TRUE(polls_differ(lent, own));
  expect_same_phase(node.run_poll(0.5, &twin), own);
}

}  // namespace
}  // namespace ps::hw
