#include "synth/objective.hpp"

#include <gtest/gtest.h>

#include "protocol/builders.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"

namespace sysgo::synth {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(Objective, TieOrderRoundsThenPeriodThenLinks) {
  Objective a;
  a.feasible = true;
  a.rounds = 10;
  a.period = 4;
  a.links = 12;
  Objective b = a;

  b.rounds = 11;
  EXPECT_TRUE(better(a, b));
  b = a;
  b.period = 5;
  EXPECT_TRUE(better(a, b));
  b = a;
  b.links = 13;
  EXPECT_TRUE(better(a, b));
  EXPECT_FALSE(better(a, a));  // strict

  // Fewer rounds beats any period/link advantage.
  b = a;
  b.rounds = 9;
  b.period = 40;
  b.links = 400;
  EXPECT_TRUE(better(b, a));

  // The order is exact past the score()'s decimal packing boundary: a
  // smaller period wins against thousands fewer links.
  Objective period_small = a, period_big = a;
  period_small.period = 10;
  period_small.links = 5000;
  period_big.period = 11;
  period_big.links = 100;
  EXPECT_TRUE(better(period_small, period_big));
}

TEST(Objective, FeasibleAlwaysBeatsInfeasible) {
  Objective bad;  // infeasible with high coverage
  bad.coverage = 1000;
  Objective good;
  good.feasible = true;
  good.rounds = 100000;
  good.period = 100;
  good.links = 100000;
  EXPECT_TRUE(better(good, bad));
  // Among infeasible candidates, more coverage wins.
  Objective worse = bad;
  worse.coverage = 999;
  EXPECT_TRUE(better(bad, worse));
}

TEST(Objective, GossipEvaluationMatchesSimulator) {
  const auto g = topology::kautz(2, 3);
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto sched = protocol::edge_coloring_schedule(g, mode);
    const auto cs = CompiledSchedule::compile(sched, &g);
    ObjectiveOptions opts;
    const auto obj = evaluate(cs, opts);
    ASSERT_TRUE(obj.feasible);
    EXPECT_EQ(obj.rounds, simulator::gossip_time(cs, opts.max_rounds));
    EXPECT_EQ(obj.period, cs.period_length());
    const int links = static_cast<int>(mode == Mode::kFullDuplex
                                           ? cs.arc_total() / 2
                                           : cs.arc_total());
    EXPECT_EQ(obj.links, links);
    EXPECT_EQ(obj.coverage, g.vertex_count() * g.vertex_count());
  }
}

TEST(Objective, InfeasibleReportsCoverageGradient) {
  // One fixed matching repeated forever can never finish gossip on a cycle
  // of 6: knowledge stops spreading after the first exchange.
  const auto g = topology::cycle(6);
  protocol::SystolicSchedule sched;
  sched.n = 6;
  sched.mode = Mode::kFullDuplex;
  sched.period.push_back({{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}}});
  const auto obj = evaluate(CompiledSchedule::compile(sched, &g), {});
  EXPECT_FALSE(obj.feasible);
  EXPECT_EQ(obj.rounds, -1);
  // Each vertex ends with exactly its pair's two items.
  EXPECT_EQ(obj.coverage, 12);
}

}  // namespace
}  // namespace sysgo::synth
