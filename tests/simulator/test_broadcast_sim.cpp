#include "simulator/broadcast_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocol/classic_protocols.hpp"
#include "simulator/gossip_sim.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(BroadcastSim, ReachOnChainProtocol) {
  protocol::Protocol p;
  p.n = 4;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}, {{{2, 3}}}};
  const auto reach = broadcast_reach(CompiledSchedule::compile(p), 0);
  EXPECT_EQ(reach[0], 0);
  EXPECT_EQ(reach[1], 1);
  EXPECT_EQ(reach[2], 2);
  EXPECT_EQ(reach[3], 3);
}

TEST(BroadcastSim, NoSameRoundForwarding) {
  // Both arcs in one round: item can hop only one arc per round.
  protocol::Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  // (0,1) and (1,2) can't share a round (matching); use separate rounds and
  // check the reverse order does not deliver.
  p.rounds = {{{{1, 2}}}, {{{0, 1}}}};
  const auto reach = broadcast_reach(CompiledSchedule::compile(p), 0);
  EXPECT_EQ(reach[1], 2);
  EXPECT_EQ(reach[2], -1);  // the (1,2) activation came before 1 was informed
}

TEST(BroadcastSim, UnreachedVerticesAreMinusOne) {
  protocol::Protocol p;
  p.n = 3;
  p.rounds = {{{{0, 1}}}};
  const auto reach = broadcast_reach(CompiledSchedule::compile(p), 2);
  EXPECT_EQ(reach[2], 0);
  EXPECT_EQ(reach[0], -1);
  EXPECT_EQ(reach[1], -1);
}

TEST(BroadcastSim, HypercubeBroadcastInDRounds) {
  const int D = 4;
  const auto cs =
      CompiledSchedule::compile(protocol::hypercube_schedule(D, Mode::kFullDuplex));
  for (int src : {0, 5, 15}) {
    EXPECT_EQ(broadcast_time(cs, src, 10 * D), D) << "src=" << src;
  }
}

TEST(BroadcastSim, BroadcastNeverBeatsEccentricity) {
  const int t = broadcast_time(
      CompiledSchedule::compile(protocol::path_schedule(9, Mode::kFullDuplex)), 0,
      200);
  ASSERT_GT(t, 0);
  EXPECT_GE(t, 8);  // distance from 0 to 8
}

TEST(BroadcastSim, BroadcastTimeUnreachable) {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.period = {{{{0, 1}}}};
  EXPECT_EQ(broadcast_time(CompiledSchedule::compile(sched), 0, 50), -1);
}

/// Reference reach times sharing no code with the simulator: a plain
/// informed flag per vertex, each round reading the start-of-round flags.
std::vector<int> naive_reach(const protocol::SystolicSchedule& sched, int src,
                             int rounds) {
  std::vector<int> reach(static_cast<std::size_t>(sched.n), -1);
  reach[static_cast<std::size_t>(src)] = 0;
  for (int i = 1; i <= rounds; ++i) {
    const auto before = reach;
    const auto& round =
        sched.period[static_cast<std::size_t>(i - 1) % sched.period.size()];
    for (const auto& a : round.arcs)
      if (before[static_cast<std::size_t>(a.tail)] != -1 &&
          reach[static_cast<std::size_t>(a.head)] == -1)
        reach[static_cast<std::size_t>(a.head)] = i;
  }
  return reach;
}

TEST(BroadcastSim, CompiledMatchesNaiveBroadcast) {
  const std::vector<protocol::SystolicSchedule> corpus = {
      protocol::path_schedule(7, Mode::kHalfDuplex),
      protocol::hypercube_schedule(4, Mode::kFullDuplex),
      protocol::cycle_schedule(6, Mode::kFullDuplex),
  };
  for (const auto& sched : corpus) {
    const auto cs = CompiledSchedule::compile(sched);
    for (int src = 0; src < sched.n; ++src) {
      const int t = broadcast_time(cs, src, 500);
      ASSERT_GT(t, 0);
      const auto want = naive_reach(sched, src, t);
      EXPECT_EQ(*std::max_element(want.begin(), want.end()), t);
      EXPECT_EQ(broadcast_reach(CompiledSchedule::compile(sched.expand(t)), src),
                want);
    }
  }
}

TEST(BroadcastSim, SourceOutOfRangeThrows) {
  const auto sched = protocol::path_schedule(4, Mode::kHalfDuplex);
  EXPECT_THROW((void)broadcast_time(CompiledSchedule::compile(sched), 4, 10),
               std::invalid_argument);
  EXPECT_THROW(
      (void)broadcast_reach(CompiledSchedule::compile(sched.expand(3)), -1),
      std::invalid_argument);
}

TEST(BroadcastSim, CompiledReachRejectsPeriodicSchedules) {
  const auto sched = protocol::path_schedule(4, Mode::kHalfDuplex);
  EXPECT_THROW((void)broadcast_reach(CompiledSchedule::compile(sched), 0),
               std::invalid_argument);
  EXPECT_THROW((void)arrival_times(CompiledSchedule::compile(sched)),
               std::invalid_argument);
}

TEST(BroadcastSim, ArrivalCompletionNeedsEveryRound) {
  // Q3 full duplex gossips in exactly 3 rounds: two leave pairs unserved.
  const auto q3 = protocol::hypercube_schedule(3, Mode::kFullDuplex);
  for (int t : {2, 3}) {
    const auto cs = CompiledSchedule::compile(q3.expand(t));
    EXPECT_EQ(gossip_completion_from_arrivals(arrival_times(cs)),
              t == 3 ? 3 : -1);
    EXPECT_EQ(run_gossip(cs).complete, t == 3);
  }
}

TEST(BroadcastSim, ArrivalMatrixRowsMatchBroadcastReach) {
  const auto cs = CompiledSchedule::compile(
      protocol::path_schedule(5, Mode::kHalfDuplex).expand(30));
  const auto arrivals = arrival_times(cs);
  ASSERT_EQ(arrivals.size(), 5u);
  for (int src = 0; src < 5; ++src)
    EXPECT_EQ(arrivals[static_cast<std::size_t>(src)], broadcast_reach(cs, src));
}

TEST(BroadcastSim, ArrivalCompletionMatchesRunGossip) {
  const auto cs = CompiledSchedule::compile(
      protocol::hypercube_schedule(3, Mode::kFullDuplex).expand(10));
  const int from_arrivals = gossip_completion_from_arrivals(arrival_times(cs));
  const auto res = run_gossip(cs);
  ASSERT_TRUE(res.complete);
  EXPECT_EQ(from_arrivals, res.completion_round);
}

TEST(BroadcastSim, ArrivalCompletionMinusOneWhenUnserved) {
  protocol::Protocol p;
  p.n = 3;
  p.rounds = {{{{0, 1}}}};
  EXPECT_EQ(
      gossip_completion_from_arrivals(arrival_times(CompiledSchedule::compile(p))),
      -1);
}

TEST(BroadcastSim, GossipImpliesBroadcastFromEverySource) {
  const auto cs = CompiledSchedule::compile(
      protocol::path_schedule(6, Mode::kHalfDuplex).expand(40));
  ASSERT_TRUE(run_gossip(cs).complete);
  for (int src = 0; src < 6; ++src) {
    const auto reach = broadcast_reach(cs, src);
    for (int v = 0; v < 6; ++v) EXPECT_NE(reach[static_cast<std::size_t>(v)], -1);
  }
}

}  // namespace
}  // namespace sysgo::simulator
