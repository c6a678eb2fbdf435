#include "protocol/classic_protocols.hpp"

#include <gtest/gtest.h>

#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"

namespace sysgo::protocol {
namespace {

TEST(ClassicProtocols, PathHalfDuplexCompletesWithinLinearRounds) {
  for (int n : {2, 3, 5, 8, 13}) {
    const auto sched = path_schedule(n, Mode::kHalfDuplex);
    const auto g = topology::path(n);
    const int t =
        simulator::gossip_time(CompiledSchedule::compile(sched, &g), 8 * n + 16);
    EXPECT_GT(t, 0) << "n=" << n;
    EXPECT_LE(t, 4 * n + 8) << "n=" << n;
  }
}

TEST(ClassicProtocols, PathFullDuplexFasterThanHalf) {
  const int n = 12;
  const int t_full = simulator::gossip_time(
      CompiledSchedule::compile(path_schedule(n, Mode::kFullDuplex)), 200);
  const int t_half = simulator::gossip_time(
      CompiledSchedule::compile(path_schedule(n, Mode::kHalfDuplex)), 200);
  ASSERT_GT(t_full, 0);
  ASSERT_GT(t_half, 0);
  EXPECT_LE(t_full, t_half);
}

TEST(ClassicProtocols, PathGossipAtLeastNMinus1) {
  // Information must traverse the whole path: t >= n-1.
  const int n = 10;
  const int t = simulator::gossip_time(
      CompiledSchedule::compile(path_schedule(n, Mode::kFullDuplex)), 200);
  EXPECT_GE(t, n - 1);
}

TEST(ClassicProtocols, CycleEvenAndOdd) {
  for (int n : {6, 7, 10, 11}) {
    const auto sched = cycle_schedule(n, Mode::kHalfDuplex);
    const auto g = topology::cycle(n);
    const int t = simulator::gossip_time(CompiledSchedule::compile(sched, &g), 10 * n);
    EXPECT_GT(t, 0) << "n=" << n;
  }
}

TEST(ClassicProtocols, CycleFullDuplexNearOptimal) {
  // Full-duplex gossip on C_n takes at least n/2 rounds.
  const int n = 12;
  const int t = simulator::gossip_time(
      CompiledSchedule::compile(cycle_schedule(n, Mode::kFullDuplex)), 100);
  ASSERT_GT(t, 0);
  EXPECT_GE(t, n / 2);
  EXPECT_LE(t, 2 * n);
}

TEST(ClassicProtocols, GridCompletes) {
  const auto sched = grid_schedule(4, 5, Mode::kHalfDuplex);
  const auto g = topology::grid(4, 5);
  EXPECT_GT(simulator::gossip_time(CompiledSchedule::compile(sched, &g), 500), 0);
}

TEST(ClassicProtocols, HypercubeFullDuplexOptimal) {
  // Dimension-order exchange gossips Q_D in exactly D rounds.
  for (int D : {2, 3, 4, 5}) {
    const auto sched = hypercube_schedule(D, Mode::kFullDuplex);
    const auto g = topology::hypercube(D);
    EXPECT_EQ(simulator::gossip_time(CompiledSchedule::compile(sched, &g), 4 * D), D)
        << "D=" << D;
  }
}

TEST(ClassicProtocols, HypercubeHalfDuplexCompletes) {
  const int D = 4;
  const auto sched = hypercube_schedule(D, Mode::kHalfDuplex);
  const int t = simulator::gossip_time(CompiledSchedule::compile(sched), 16 * D);
  ASSERT_GT(t, 0);
  EXPECT_LE(t, 4 * D);  // one sweep of 2D rounds doubles twice... generous cap
  EXPECT_GE(t, D);      // cannot beat the full-duplex optimum
}

TEST(ClassicProtocols, CompletePower2MatchesHypercube) {
  const auto sched = complete_power2_schedule(16, Mode::kFullDuplex);
  EXPECT_EQ(sched.n, 16);
  EXPECT_EQ(simulator::gossip_time(CompiledSchedule::compile(sched), 64), 4);
}

TEST(ClassicProtocols, CompletePower2RejectsNonPowers) {
  EXPECT_THROW((void)complete_power2_schedule(12, Mode::kFullDuplex),
               std::invalid_argument);
}

TEST(ClassicProtocols, SchedulesAreSystolicWhenExpanded) {
  const auto sched = path_schedule(9, Mode::kHalfDuplex);
  const auto p = sched.expand(3 * sched.period_length());
  EXPECT_TRUE(is_systolic(p, sched.period_length()));
}

TEST(ClassicProtocols, RejectsBadParameters) {
  EXPECT_THROW((void)path_schedule(1, Mode::kHalfDuplex), std::invalid_argument);
  EXPECT_THROW((void)cycle_schedule(2, Mode::kHalfDuplex), std::invalid_argument);
  EXPECT_THROW((void)hypercube_schedule(0, Mode::kHalfDuplex), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::protocol
