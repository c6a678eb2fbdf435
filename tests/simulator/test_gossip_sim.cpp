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
using protocol::Protocol;
using protocol::Round;

TEST(GossipSim, TwoVerticesHalfDuplexNeedsTwoRounds) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 0}}}};
  const auto res = run_gossip(CompiledSchedule::compile(p));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.completion_round, 2);
}

TEST(GossipSim, TwoVerticesFullDuplexNeedsOneRound) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  p.rounds = {{{{0, 1}, {1, 0}}}};
  const auto res = run_gossip(CompiledSchedule::compile(p));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.completion_round, 1);
}

TEST(GossipSim, IncompleteProtocolReported) {
  Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}};
  const auto res = run_gossip(CompiledSchedule::compile(p));
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.final_counts[1], 2);
  EXPECT_EQ(res.final_counts[2], 1);
}

TEST(GossipSim, HalfDuplexRoundSemantics) {
  // Chain 0->1 then 1->2: item 0 reaches 2 after two rounds, not one.
  Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}};
  const auto res = run_gossip(CompiledSchedule::compile(p));
  EXPECT_TRUE(res.final_counts[2] >= 2);  // knows items 1 and 2 at least
  const auto cs = CompiledSchedule::compile(p);
  KnowledgeMatrix k(3);
  apply_round(k, cs, 0);
  EXPECT_TRUE(k.knows(1, 0));
  EXPECT_FALSE(k.knows(2, 0));
  apply_round(k, cs, 1);
  EXPECT_TRUE(k.knows(2, 0));
}

TEST(GossipSim, FullDuplexPairSwapsKnowledge) {
  KnowledgeMatrix k(4);
  k.learn(0, 2);
  Protocol p;
  p.n = 4;
  p.mode = Mode::kFullDuplex;
  p.rounds = {{{{0, 1}, {1, 0}}}};
  apply_round(k, CompiledSchedule::compile(p), 0);
  EXPECT_TRUE(k.knows(1, 0));
  EXPECT_TRUE(k.knows(1, 2));
  EXPECT_TRUE(k.knows(0, 1));
}

TEST(GossipSim, TrackCompletionRecordsRounds) {
  const auto sched = protocol::path_schedule(5, Mode::kHalfDuplex);
  const auto p = sched.expand(60);
  GossipOptions opts;
  opts.track_completion = true;
  const auto res = run_gossip(CompiledSchedule::compile(p), opts);
  ASSERT_TRUE(res.complete);
  ASSERT_EQ(res.vertex_completion.size(), 5u);
  int max_completion = 0;
  for (int v = 0; v < 5; ++v) {
    EXPECT_GE(res.vertex_completion[static_cast<std::size_t>(v)], 1);
    max_completion =
        std::max(max_completion, res.vertex_completion[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(max_completion, res.completion_round);
}

TEST(GossipSim, EarlyExitOnceComplete) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  for (int i = 0; i < 50; ++i) p.rounds.push_back({{{0, 1}, {1, 0}}});
  const auto res = run_gossip(CompiledSchedule::compile(p));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.rounds_executed, 1);
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

    GossipOptions track;
    track.track_completion = true;
    const auto got = run_gossip(
        CompiledSchedule::compile(sched.expand(want.completion)), track);
    EXPECT_TRUE(got.complete);
    EXPECT_EQ(got.rounds_executed, want.completion);
    EXPECT_EQ(got.completion_round, want.completion);
    EXPECT_EQ(got.vertex_completion, want.vertex_completion);
    EXPECT_EQ(got.final_counts, want.final_counts);

    const NaiveRun cut = naive_gossip(sched, want.completion - 1);
    const auto partial =
        run_gossip(CompiledSchedule::compile(sched.expand(want.completion - 1)));
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.rounds_executed, want.completion - 1);
    EXPECT_EQ(partial.final_counts, cut.final_counts);
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
    EXPECT_THROW((void)CompiledSchedule::compile(sched.expand(4)),
                 std::invalid_argument);
  }
}

TEST(GossipSim, CompiledRunGossipRejectsPeriodicSchedules) {
  // One period is not a run: periodic compiled schedules go through
  // gossip_time, finite protocols through run_gossip.
  const auto sched = protocol::path_schedule(4, Mode::kHalfDuplex);
  EXPECT_THROW((void)run_gossip(CompiledSchedule::compile(sched)),
               std::invalid_argument);
}

TEST(GossipSim, CompiledFiniteProtocolStopsAtItsLength) {
  // A finite compiled protocol never executes past round_count(), even
  // when max_rounds asks for more.
  const auto p = protocol::path_schedule(5, Mode::kHalfDuplex).expand(3);
  const auto cs = CompiledSchedule::compile(p);
  EXPECT_EQ(gossip_time(cs, 1 << 12), -1);  // 3 rounds cannot finish P5
}

}  // namespace
}  // namespace sysgo::simulator
