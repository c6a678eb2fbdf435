#include "simulator/gossip_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "protocol/classic_protocols.hpp"
#include "topology/classic.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;
using protocol::SystolicSchedule;
using protocol::Round;

/// One run stepped round by round with apply_round over the stored rounds
/// (wrapping, like gossip_time) for max_rounds rounds or until complete:
/// the per-vertex view a whole-run gossip_time does not report.
struct SteppedRun {
  int completion = -1;  // gossip time, -1 when the rounds ran out first
  std::vector<int> vertex_completion;  // -1: never complete
  std::vector<int> final_counts;
};

SteppedRun step_rounds(const CompiledSchedule& cs, int max_rounds,
                       bool parallel = false) {
  const int n = cs.n();
  KnowledgeMatrix know(n);
  SteppedRun run;
  run.vertex_completion.assign(static_cast<std::size_t>(n), -1);
  for (int i = 1; i <= max_rounds && run.completion < 0; ++i) {
    apply_round(know, cs, (i - 1) % cs.period_length(), parallel);
    for (int v = 0; v < n; ++v)
      if (run.vertex_completion[static_cast<std::size_t>(v)] == -1 &&
          know.row_full(v))
        run.vertex_completion[static_cast<std::size_t>(v)] = i;
    if (know.all_full()) run.completion = i;
  }
  for (int v = 0; v < n; ++v) run.final_counts.push_back(know.count(v));
  return run;
}

TEST(GossipSim, TwoVerticesHalfDuplexNeedsTwoRounds) {
  SystolicSchedule p;
  p.n = 2;
  p.mode = Mode::kHalfDuplex;
  p.period = {{{{0, 1}}}, {{{1, 0}}}};
  EXPECT_EQ(gossip_time(CompiledSchedule::compile(p), p.period_length()), 2);
}

TEST(GossipSim, TwoVerticesFullDuplexNeedsOneRound) {
  SystolicSchedule p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  p.period = {{{{0, 1}, {1, 0}}}};
  EXPECT_EQ(gossip_time(CompiledSchedule::compile(p), p.period_length()), 1);
}

TEST(GossipSim, IncompleteProtocolReported) {
  SystolicSchedule p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  p.period = {{{{0, 1}}}};
  const auto cs = CompiledSchedule::compile(p);
  EXPECT_EQ(gossip_time(cs, p.period_length()), -1);
  const auto run = step_rounds(cs, p.period_length());
  EXPECT_EQ(run.final_counts[1], 2);
  EXPECT_EQ(run.final_counts[2], 1);
}

TEST(GossipSim, HalfDuplexRoundSemantics) {
  // Chain 0->1 then 1->2: item 0 reaches 2 after two rounds, not one.
  SystolicSchedule p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  p.period = {{{{0, 1}}}, {{{1, 2}}}};
  const auto cs = CompiledSchedule::compile(p);
  KnowledgeMatrix k(3);
  apply_round(k, cs, 0);
  EXPECT_TRUE(k.knows(1, 0));
  EXPECT_FALSE(k.knows(2, 0));
  apply_round(k, cs, 1);
  EXPECT_TRUE(k.knows(2, 0));
  EXPECT_EQ(k.count(2), 3);  // items 0, 1 and its own
}

TEST(GossipSim, FullDuplexPairSwapsKnowledge) {
  KnowledgeMatrix k(4);
  k.learn(0, 2);
  SystolicSchedule p;
  p.n = 4;
  p.mode = Mode::kFullDuplex;
  p.period = {{{{0, 1}, {1, 0}}}};
  apply_round(k, CompiledSchedule::compile(p), 0);
  EXPECT_TRUE(k.knows(1, 0));
  EXPECT_TRUE(k.knows(1, 2));
  EXPECT_TRUE(k.knows(0, 1));
}

TEST(GossipSim, LastVertexCompletesAtTheGossipTime) {
  const auto cs =
      CompiledSchedule::compile(protocol::path_schedule(5, Mode::kHalfDuplex));
  const auto run = step_rounds(cs, 60);
  ASSERT_EQ(run.vertex_completion.size(), 5u);
  for (int round : run.vertex_completion) EXPECT_GE(round, 1);
  EXPECT_EQ(*std::max_element(run.vertex_completion.begin(),
                              run.vertex_completion.end()),
            run.completion);
  EXPECT_EQ(gossip_time(cs, 60), run.completion);
}

TEST(GossipSim, EarlyExitOnceComplete) {
  SystolicSchedule p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  for (int i = 0; i < 50; ++i) p.period.push_back({{{0, 1}, {1, 0}}});
  EXPECT_EQ(gossip_time(CompiledSchedule::compile(p), p.period_length()), 1);
}

TEST(GossipSim, ParallelMatchesSerial) {
  const auto cs =
      CompiledSchedule::compile(protocol::hypercube_schedule(6, Mode::kFullDuplex));
  GossipOptions serial, parallel;
  parallel.parallel = true;
  EXPECT_EQ(gossip_time(cs, 100, serial), gossip_time(cs, 100, parallel));
}

TEST(GossipSim, GossipTimeSingleVertexIsZero) {
  protocol::SystolicSchedule sched;
  sched.n = 1;
  sched.period = {{}};
  EXPECT_EQ(gossip_time(CompiledSchedule::compile(sched), 10), 0);
}

TEST(GossipSim, GossipTimeReturnsMinusOneWhenStuck) {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.mode = Mode::kHalfDuplex;
  sched.period = {{{{0, 1}}}};  // vertex 2 never participates
  EXPECT_EQ(gossip_time(CompiledSchedule::compile(sched), 50), -1);
}

/// Reference semantics sharing no code with KnowledgeMatrix: one
/// std::vector<bool> item set per vertex, and every arc reads its tail's
/// set as it stood at the start of the round.
struct NaiveRun {
  int completion = -1;  // gossip time, -1 when the cap ran out first
  std::vector<int> vertex_completion;
  std::vector<int> final_counts;
};

NaiveRun naive_gossip(const protocol::SystolicSchedule& sched, int max_rounds) {
  const auto n = static_cast<std::size_t>(sched.n);
  std::vector<std::vector<bool>> know(n, std::vector<bool>(n, false));
  for (std::size_t v = 0; v < n; ++v) know[v][v] = true;
  const auto count = [&](std::size_t v) {
    return static_cast<int>(std::count(know[v].begin(), know[v].end(), true));
  };
  NaiveRun run;
  run.vertex_completion.assign(n, -1);
  for (int i = 1; i <= max_rounds && run.completion < 0; ++i) {
    const auto before = know;
    const Round& round =
        sched.period[static_cast<std::size_t>(i - 1) % sched.period.size()];
    for (const auto& a : round.arcs)
      for (std::size_t item = 0; item < n; ++item)
        if (before[static_cast<std::size_t>(a.tail)][item])
          know[static_cast<std::size_t>(a.head)][item] = true;
    bool all = true;
    for (std::size_t v = 0; v < n; ++v) {
      const bool full = count(v) == sched.n;
      if (full && run.vertex_completion[v] == -1) run.vertex_completion[v] = i;
      all = all && full;
    }
    if (all) run.completion = i;
  }
  for (std::size_t v = 0; v < n; ++v) run.final_counts.push_back(count(v));
  return run;
}

// The compiled execution path must match the naive reference: same gossip
// times, same per-vertex completion rounds, same partial knowledge when a
// run stops short, serial or parallel.
TEST(GossipSim, CompiledMatchesNaiveSimulator) {
  const std::vector<protocol::SystolicSchedule> corpus = {
      protocol::path_schedule(6, Mode::kHalfDuplex),
      protocol::cycle_schedule(7, Mode::kHalfDuplex),
      protocol::hypercube_schedule(4, Mode::kFullDuplex),
      protocol::hypercube_schedule(5, Mode::kHalfDuplex),
  };
  for (const auto& sched : corpus) {
    const NaiveRun want = naive_gossip(sched, 1 << 12);
    ASSERT_GT(want.completion, 1);
    const auto cs = CompiledSchedule::compile(sched);
    EXPECT_EQ(gossip_time(cs, 1 << 12), want.completion);
    GossipOptions par;
    par.parallel = true;
    EXPECT_EQ(gossip_time(cs, 1 << 12, par), want.completion);

    for (const bool parallel : {false, true}) {
      const auto got = step_rounds(cs, want.completion, parallel);
      EXPECT_EQ(got.completion, want.completion);
      EXPECT_EQ(got.vertex_completion, want.vertex_completion);
      EXPECT_EQ(got.final_counts, want.final_counts);

      const NaiveRun cut = naive_gossip(sched, want.completion - 1);
      const auto partial = step_rounds(cs, want.completion - 1, parallel);
      EXPECT_EQ(partial.completion, -1);
      EXPECT_EQ(partial.vertex_completion, cut.vertex_completion);
      EXPECT_EQ(partial.final_counts, cut.final_counts);
    }
  }
}

// The simulator runs only compiled rounds, and compiling rejects a round
// that is not a matching in the schedule's mode, in either authoring form.
TEST(GossipSim, CompileRejectsNonMatchingRounds) {
  // A directed triangle: vertex 1 receives from 0 and sends to 2 in the
  // same half-duplex round.
  protocol::SystolicSchedule triangle;
  triangle.n = 3;
  triangle.mode = Mode::kHalfDuplex;
  triangle.period = {{{{0, 1}, {1, 2}, {2, 0}}}};
  // Link {0,1} carries only 0 -> 1: a full-duplex round needs both arcs.
  protocol::SystolicSchedule one_way;
  one_way.n = 4;
  one_way.mode = Mode::kFullDuplex;
  one_way.period = {{{{0, 1}, {2, 3}, {3, 2}}}};
  for (const auto& sched : {triangle, one_way}) {
    EXPECT_THROW((void)CompiledSchedule::compile(sched), std::invalid_argument);
  }
}

}  // namespace
}  // namespace sysgo::simulator
