// Property sweep: random protocols on random-ish networks obey the
// simulator's fundamental invariants, and the single-item broadcast view is
// consistent with the full knowledge-set view.
#include <gtest/gtest.h>

#include "protocol/builders.hpp"
#include "simulator/broadcast_sim.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "util/rng.hpp"

namespace sysgo::simulator {
namespace {

using protocol::Mode;

graph::Digraph pick_network(int which) {
  switch (which % 4) {
    case 0: return topology::cycle(9);
    case 1: return topology::de_bruijn(2, 4);
    case 2: return topology::kautz(2, 3);
    default: return topology::grid(3, 4);
  }
}

class SimProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimProperty, KnowledgeInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto g = pick_network(GetParam());
  const auto mode = GetParam() % 2 == 0 ? Mode::kHalfDuplex : Mode::kFullDuplex;
  const auto p = protocol::random_systolic_schedule(g, 20, mode, rng);

  // Compiling against g validates the rounds.  Step manually and check
  // monotone growth, bounds, and self-knowledge.
  const auto cs = protocol::CompiledSchedule::compile(p, &g);
  KnowledgeMatrix know(p.n);
  std::vector<int> prev(static_cast<std::size_t>(p.n), 1);
  for (int r = 0; r < cs.period_length(); ++r) {
    apply_round(know, cs, r);
    for (int v = 0; v < p.n; ++v) {
      const int c = know.count(v);
      EXPECT_GE(c, prev[static_cast<std::size_t>(v)]);  // monotone
      EXPECT_LE(c, p.n);
      EXPECT_TRUE(know.knows(v, v));  // own item never lost
      prev[static_cast<std::size_t>(v)] = c;
    }
  }
}

TEST_P(SimProperty, BroadcastViewMatchesKnowledgeView) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const auto g = pick_network(GetParam() + 1);
  const auto mode = GetParam() % 2 == 0 ? Mode::kFullDuplex : Mode::kHalfDuplex;
  const auto p = protocol::random_systolic_schedule(g, 16, mode, rng);
  const auto cs = protocol::CompiledSchedule::compile(p);

  KnowledgeMatrix know(p.n);
  for (int r = 0; r < cs.period_length(); ++r) apply_round(know, cs, r);
  // know.count(v) must equal the number of sources whose item reached v.
  std::vector<int> reached(static_cast<std::size_t>(p.n), 0);
  for (int src = 0; src < p.n; ++src) {
    const auto reach = broadcast_reach(cs, src, p.period_length());
    for (int v = 0; v < p.n; ++v)
      if (reach[static_cast<std::size_t>(v)] != -1)
        ++reached[static_cast<std::size_t>(v)];
  }
  for (int v = 0; v < p.n; ++v)
    EXPECT_EQ(know.count(v), reached[static_cast<std::size_t>(v)])
        << "v=" << v;
}

TEST_P(SimProperty, ReachTimesRespectRoundOrdering) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const auto g = pick_network(GetParam() + 2);
  const auto p = protocol::random_systolic_schedule(g, 12, Mode::kHalfDuplex, rng);
  const auto cs = protocol::CompiledSchedule::compile(p);
  for (int src = 0; src < p.n; src += 3) {
    const auto reach = broadcast_reach(cs, src, p.period_length());
    EXPECT_EQ(reach[static_cast<std::size_t>(src)], 0);
    for (int v = 0; v < p.n; ++v) {
      const int r = reach[static_cast<std::size_t>(v)];
      EXPECT_LE(r, p.period_length());
      EXPECT_GE(r, -1);
      if (v != src && r != -1) {
        EXPECT_GE(r, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace sysgo::simulator
