#include "synth/objective.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "protocol/builders.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "util/rng.hpp"

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

/// The objective of `d` under a round cap by a plain loop with no stall
/// exit: snapshot semantics over one 64-bit row per vertex (n <= 64),
/// every round up to the cap.
Objective reference_objective(const ScheduleDraft& d, int cap) {
  const int n = d.n();
  const std::uint64_t full = n == 64 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << n) - 1;
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    rows[static_cast<std::size_t>(v)] = std::uint64_t{1} << v;
  Objective o;
  o.period = d.period();
  o.links = static_cast<int>(d.total_links());
  for (int i = 1; i <= cap; ++i) {
    const std::vector<std::uint64_t> before = rows;
    for (const graph::Arc& l : d.links((i - 1) % d.period())) {
      const auto t = static_cast<std::size_t>(l.tail);
      const auto h = static_cast<std::size_t>(l.head);
      rows[h] |= before[t];
      if (d.mode() == Mode::kFullDuplex) rows[t] |= before[h];
    }
    bool done = true;
    for (const std::uint64_t w : rows) done = done && w == full;
    if (done) {
      o.feasible = true;
      o.rounds = i;
      o.coverage = n * n;
      return o;
    }
  }
  for (const std::uint64_t w : rows) o.coverage += std::popcount(w);
  return o;
}

TEST(Objective, DraftEvaluatorMatchesAPlainLoopOnRandomDrafts) {
  // Random drafts on 2..40 vertices: links drawn from all pairs, or only
  // from within two halves (never feasible), with empty rounds left where
  // no insert landed.
  util::Rng rng(5);
  DraftEvaluator evaluator;
  constexpr int kDeepCap = 10000;
  int infeasible = 0;
  int feasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Mode mode = trial % 2 == 0 ? Mode::kHalfDuplex : Mode::kFullDuplex;
    const int n = rng.uniform_int(2, 40);
    const bool split = rng.uniform_int(0, 1) == 1;
    ScheduleDraft d(n, mode, rng.uniform_int(1, 6));
    const int attempts = rng.uniform_int(0, 4 * n * d.period());
    for (int k = 0; k < attempts; ++k) {
      int u = rng.uniform_int(0, n - 1);
      int v = rng.uniform_int(0, n - 1);
      if (split && (u < n / 2) != (v < n / 2)) continue;
      if (mode == Mode::kFullDuplex && u > v) std::swap(u, v);
      (void)d.insert(rng.uniform_int(0, d.period() - 1), {u, v});
    }
    const int p = d.period();
    for (int cap = 1; cap <= 3 * p + 1; ++cap) {
      const int c = cap == 3 * p + 1 ? kDeepCap : cap;
      const Objective want = reference_objective(d, c);
      const Objective got = evaluator.evaluate(d, {c});
      EXPECT_EQ(got.feasible, want.feasible) << "trial " << trial << " cap " << c;
      EXPECT_EQ(got.rounds, want.rounds) << "trial " << trial << " cap " << c;
      EXPECT_EQ(got.period, want.period) << "trial " << trial;
      EXPECT_EQ(got.links, want.links) << "trial " << trial;
      EXPECT_EQ(got.coverage, want.coverage) << "trial " << trial << " cap " << c;
      EXPECT_LE(evaluator.rounds_simulated(), c);
      if (got.feasible) {
        EXPECT_EQ(evaluator.rounds_simulated(), got.rounds);
      }
    }
    // At the deep cap an infeasible draft has stalled long before it: each
    // gaining round adds a bit (at most n^2 - n of them) and fewer than a
    // period of idle rounds separate two gains, so at most 9,366 rounds.
    if (evaluator.evaluate(d, {kDeepCap}).feasible) {
      ++feasible;
    } else {
      ++infeasible;
      EXPECT_LT(evaluator.rounds_simulated(), kDeepCap) << "trial " << trial;
    }
  }
  EXPECT_GT(infeasible, 30);
  EXPECT_GT(feasible, 30);
}

}  // namespace
}  // namespace sysgo::synth
