#include "search/matchings.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/matching.hpp"
#include "topology/classic.hpp"
#include "topology/knodel.hpp"
#include "util/rng.hpp"

namespace sysgo::search {
namespace {

using protocol::Mode;

TEST(MaximalMatchings, K2) {
  const auto g = topology::complete(2);
  const auto hd = maximal_matchings(g, Mode::kHalfDuplex);
  EXPECT_EQ(hd.size(), 2u);  // {0>1} and {1>0}
  const auto fd = maximal_matchings(g, Mode::kFullDuplex);
  EXPECT_EQ(fd.size(), 1u);  // {0<->1}
}

TEST(MaximalMatchings, AllAreValidMatchings) {
  const auto g = topology::cycle(6);
  for (const auto& r : maximal_matchings(g, Mode::kHalfDuplex))
    EXPECT_TRUE(graph::is_half_duplex_matching(r.arcs, 6));
  for (const auto& r : maximal_matchings(g, Mode::kFullDuplex))
    EXPECT_TRUE(graph::is_full_duplex_matching(r.arcs, 6));
}

TEST(MaximalMatchings, NoneIsContainedInAnother) {
  const auto g = topology::complete(4);
  const auto rounds = maximal_matchings(g, Mode::kHalfDuplex);
  for (const auto& a : rounds)
    for (const auto& b : rounds) {
      if (a == b) continue;
      EXPECT_FALSE(std::includes(b.arcs.begin(), b.arcs.end(), a.arcs.begin(),
                                 a.arcs.end()))
          << "matching contained in another";
    }
}

TEST(MaximalMatchings, P3FullDuplexHasTwo) {
  // P3 edges {0,1}, {1,2}: each alone is maximal (they share vertex 1).
  const auto fd = maximal_matchings(topology::path(3), Mode::kFullDuplex);
  EXPECT_EQ(fd.size(), 2u);
}

TEST(MaximalMatchings, CanonicalOrderingContract) {
  // Documented contract: each round's arcs sorted by (tail, head), rounds
  // sorted lexicographically, no duplicates.
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto rounds = maximal_matchings(topology::cycle(6), mode);
    ASSERT_FALSE(rounds.empty());
    for (const auto& r : rounds)
      EXPECT_TRUE(std::is_sorted(r.arcs.begin(), r.arcs.end()));
    for (std::size_t i = 1; i < rounds.size(); ++i)
      EXPECT_LT(rounds[i - 1].arcs, rounds[i].arcs);
  }
}

TEST(MaximalMatchings, OrderingIndependentOfArcInsertionOrder) {
  // Regression: solver determinism across thread counts relies on the move
  // list depending only on the arc SET.  Build the same graph from shuffled
  // arc input and compare the full ordered output.
  const auto reference = topology::knodel(2, 8);
  std::vector<graph::Arc> arcs(reference.arcs().begin(), reference.arcs().end());
  util::Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(arcs.begin(), arcs.end(), rng.engine());
    graph::Digraph shuffled(reference.vertex_count(), arcs);
    for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      const auto a = maximal_matchings(reference, mode);
      const auto b = maximal_matchings(shuffled, mode);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].arcs, b[i].arcs) << "round " << i;
    }
  }
}

TEST(MaximalMatchings, SupportsUpToTwelveVertices) {
  // The solver's vertex limit (kMaxVertices) is the generator's too.
  EXPECT_FALSE(maximal_matchings(topology::cycle(12), Mode::kHalfDuplex).empty());
  EXPECT_THROW((void)maximal_matchings(topology::cycle(13), Mode::kHalfDuplex),
               std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::search
