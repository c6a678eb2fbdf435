#include "core/delay_digraph.hpp"

#include <gtest/gtest.h>

#include "protocol/classic_protocols.hpp"

namespace sysgo::core {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

// P3 half-duplex, 4-systolic: (0,1), (1,2), (2,1), (1,0), repeated.
CompiledSchedule p3_schedule() {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.mode = Mode::kHalfDuplex;
  sched.period = {{{{0, 1}}}, {{{1, 2}}}, {{{2, 1}}}, {{{1, 0}}}};
  return CompiledSchedule::compile(sched);
}

TEST(DelayDigraph, NodesAreAllActivations) {
  const auto dg = DelayDigraph(p3_schedule(), 8);
  EXPECT_EQ(dg.node_count(), 8u);  // one arc per round
  EXPECT_EQ(dg.period(), 4);
  // Activation (0,1) at round 1 exists; at round 2 does not.
  EXPECT_GE(dg.find(0, 1, 1), 0);
  EXPECT_EQ(dg.find(0, 1, 2), -1);
  EXPECT_GE(dg.find(1, 2, 2), 0);
}

TEST(DelayDigraph, ArcsRespectWindowAndMiddleVertex) {
  const auto dg = DelayDigraph(p3_schedule(), 8);
  for (const auto& arc : dg.arcs()) {
    const auto& from = dg.nodes()[static_cast<std::size_t>(arc.from)];
    const auto& to = dg.nodes()[static_cast<std::size_t>(arc.to)];
    EXPECT_EQ(from.head, to.tail);           // consecutive arcs share the vertex
    EXPECT_EQ(arc.weight, to.round - from.round);
    EXPECT_GE(arc.weight, 1);
    EXPECT_LT(arc.weight, 4);                // window j - i < s
  }
}

TEST(DelayDigraph, SpecificDelayEdges) {
  const auto dg = DelayDigraph(p3_schedule(), 8);
  const int a01r1 = dg.find(0, 1, 1);
  const int a12r2 = dg.find(1, 2, 2);
  const int a10r4 = dg.find(1, 0, 4);
  ASSERT_GE(a01r1, 0);
  ASSERT_GE(a12r2, 0);
  ASSERT_GE(a10r4, 0);
  // (0,1,1) -> (1,2,2) with delay 1, and (0,1,1) -> (1,0,4) with delay 3.
  int found_12 = 0, found_10 = 0;
  for (const auto& arc : dg.arcs()) {
    if (arc.from == a01r1 && arc.to == a12r2) {
      EXPECT_EQ(arc.weight, 1);
      ++found_12;
    }
    if (arc.from == a01r1 && arc.to == a10r4) {
      EXPECT_EQ(arc.weight, 3);
      ++found_10;
    }
  }
  EXPECT_EQ(found_12, 1);
  EXPECT_EQ(found_10, 1);
}

TEST(DelayDigraph, NoArcAtDelayS) {
  // (0,1,1) and (1,2,6): delay 5 > s-1 -> no arc.
  const auto dg = DelayDigraph(p3_schedule(), 8);
  const int from = dg.find(0, 1, 1);
  const int to = dg.find(1, 2, 6);
  ASSERT_GE(from, 0);
  ASSERT_GE(to, 0);
  for (const auto& arc : dg.arcs()) EXPECT_FALSE(arc.from == from && arc.to == to);
}

TEST(DelayDigraph, WeightedDistanceIsOverallDelay) {
  const auto dg = DelayDigraph(p3_schedule(), 12);
  // Item of 0 crossing (0,1) at round 1, then (1,2) at round 2: delay 1.
  const int a = dg.find(0, 1, 1);
  const int b = dg.find(1, 2, 2);
  EXPECT_EQ(dg.weighted_distance(a, b), 1);
  // (0,1,1) to (1,2,6): not direct, but via (2,1,3)? No: (1,2,...) needs an
  // in-arc of 1 first.  Path (0,1,1) -> (1,2,2) exists; to reach (1,2,6) we
  // need ... -> (2,1,3) -> (1,2,6)? 6-3 = 3 < 4: yes.
  const int c = dg.find(2, 1, 3);
  const int d = dg.find(1, 2, 6);
  ASSERT_GE(c, 0);
  ASSERT_GE(d, 0);
  EXPECT_EQ(dg.weighted_distance(b, d), 4);  // (1,2,2)->(2,1,3)->(1,2,6)
  EXPECT_EQ(dg.weighted_distance(a, d), 5);
}

TEST(DelayDigraph, UnreachableDistanceIsMinusOne) {
  const auto dg = DelayDigraph(p3_schedule(), 4);
  const int late = dg.find(1, 0, 4);
  const int early = dg.find(0, 1, 1);
  ASSERT_GE(late, 0);
  ASSERT_GE(early, 0);
  EXPECT_EQ(dg.weighted_distance(late, early), -1);
}

TEST(DelayDigraph, NodesFollowTheCompiledRoundSpans) {
  // Activations are the compiled rounds' canonical arc spans, round by round
  // (wrapping the period), in order.
  const auto cs =
      CompiledSchedule::compile(protocol::path_schedule(5, Mode::kHalfDuplex));
  const int t = 3 * cs.period_length();
  const DelayDigraph dg(cs, t);
  EXPECT_EQ(dg.period(), cs.period_length());
  std::vector<Activation> want;
  for (int i = 1; i <= t; ++i)
    for (const auto& a : cs.round_arcs(cs.round_index(i)))
      want.push_back({a.tail, a.head, i});
  EXPECT_EQ(dg.nodes(), want);
}

TEST(DelayDigraph, RejectsTinyPeriodAndFiniteProtocols) {
  protocol::SystolicSchedule one;
  one.n = 3;
  one.period = {{{{0, 1}}}};
  EXPECT_THROW(DelayDigraph(CompiledSchedule::compile(one), 4),
               std::invalid_argument);
  const auto finite = CompiledSchedule::compile(
      protocol::path_schedule(4, Mode::kHalfDuplex).expand(8));
  EXPECT_THROW(DelayDigraph(finite, 8), std::invalid_argument);
}

TEST(DelayDigraph, NodeCountScalesWithRounds) {
  const auto dg = DelayDigraph(
      CompiledSchedule::compile(protocol::hypercube_schedule(3, Mode::kFullDuplex)),
      6);
  // Every round activates all 8 vertices in 4 pairs = 8 arcs; 6 rounds.
  EXPECT_EQ(dg.node_count(), 48u);
}

}  // namespace
}  // namespace sysgo::core
