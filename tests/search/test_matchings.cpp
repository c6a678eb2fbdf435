#include "search/matchings.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/scenario.hpp"
#include "graph/matching.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "topology/knodel.hpp"
#include "topology/topology.hpp"
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

// ------------------------------------------- enumerate-then-filter reference
//
// The generator as it was before maximality moved into the enumeration:
// branch on the lowest free vertex, emit every matching (maximal or not),
// then keep the rounds no other round strictly contains, pairwise.

using protocol::Round;

void reference_half(const graph::Digraph& g, int v, std::uint32_t used,
                    std::vector<graph::Arc>& current, std::vector<Round>& out) {
  const int n = g.vertex_count();
  while (v < n && (used >> v) & 1) ++v;
  if (v == n) {
    out.push_back(Round{current});
    out.back().canonicalize();
    return;
  }
  for (int w : g.out_neighbors(v)) {
    if (w == v || ((used >> w) & 1)) continue;
    current.push_back({v, w});
    reference_half(g, v + 1, used | (1u << v) | (1u << w), current, out);
    current.pop_back();
  }
  for (int w : g.in_neighbors(v)) {
    if (w == v || ((used >> w) & 1)) continue;
    current.push_back({w, v});
    reference_half(g, v + 1, used | (1u << v) | (1u << w), current, out);
    current.pop_back();
  }
  reference_half(g, v + 1, used | (1u << v), current, out);
}

void reference_full(const graph::Digraph& g, int v, std::uint32_t used,
                    std::vector<graph::Arc>& current, std::vector<Round>& out) {
  const int n = g.vertex_count();
  while (v < n && (used >> v) & 1) ++v;
  if (v == n) {
    out.push_back(Round{current});
    out.back().canonicalize();
    return;
  }
  for (int w : g.out_neighbors(v)) {
    if (w <= v || ((used >> w) & 1) || !g.has_arc(w, v)) continue;
    current.push_back({v, w});
    current.push_back({w, v});
    reference_full(g, v + 1, used | (1u << v) | (1u << w), current, out);
    current.pop_back();
    current.pop_back();
  }
  reference_full(g, v + 1, used | (1u << v), current, out);
}

std::vector<Round> reference_maximal_matchings(const graph::Digraph& g,
                                               Mode mode) {
  std::vector<Round> rounds;
  std::vector<graph::Arc> current;
  if (mode == Mode::kFullDuplex)
    reference_full(g, 0, 0, current, rounds);
  else
    reference_half(g, 0, 0, current, rounds);
  std::sort(rounds.begin(), rounds.end(),
            [](const Round& a, const Round& b) { return a.arcs < b.arcs; });
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  std::vector<Round> maximal;
  for (const auto& r : rounds) {
    bool dominated = false;
    for (const auto& other : rounds) {
      if (other.arcs.size() <= r.arcs.size() || r == other) continue;
      dominated = std::includes(other.arcs.begin(), other.arcs.end(),
                                r.arcs.begin(), r.arcs.end());
      if (dominated) break;
    }
    if (!dominated && !r.arcs.empty()) maximal.push_back(r);
  }
  return maximal;
}

void expect_same_lists(const graph::Digraph& g, const std::string& label) {
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto got = maximal_matchings(g, mode);
    const auto want = reference_maximal_matchings(g, mode);
    const std::string where =
        label + (mode == Mode::kHalfDuplex ? " half" : " full");
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i].arcs, want[i].arcs) << where << " round " << i;
  }
}

TEST(MaximalMatchings, MatchesEnumerateThenFilterReference) {
  // Every registered family member with n <= 9 (families that ignore d are
  // built once per distinct arc set).
  std::set<std::pair<int, std::vector<graph::Arc>>> seen;
  int members = 0;
  for (const topology::Family f : engine::registry_families()) {
    for (int d = 1; d <= 3; ++d) {
      for (int D = 0; D <= 12; ++D) {
        std::int64_t n = 0;
        try {
          n = topology::family_order(f, d, D);
        } catch (const std::invalid_argument&) {
          continue;
        }
        if (n < 1 || n > 9) continue;
        const auto g = topology::make_family(f, d, D);
        const std::vector<graph::Arc> arcs(g.arcs().begin(), g.arcs().end());
        if (!seen.emplace(g.vertex_count(), arcs).second) continue;
        ++members;
        expect_same_lists(g, topology::family_name(f, d) + " D=" +
                                 std::to_string(D));
      }
    }
  }
  EXPECT_GE(members, 60);

  // One-way arcs (0>1, 2>3, 4>0), a 2-cycle (1<>2), a self-loop (3>3) and
  // a doubled arc (3>4 twice).
  graph::Digraph mixed(5);
  for (const auto& [t, h] : {std::pair{0, 1}, {1, 2}, {2, 1}, {2, 3}, {3, 3},
                             {3, 4}, {3, 4}, {4, 0}})
    mixed.add_arc(t, h);
  mixed.finalize();
  expect_same_lists(mixed, "mixed");
  EXPECT_EQ(maximal_matchings(mixed, Mode::kFullDuplex).size(), 1u);  // 1<>2

  // Only one-way arcs and a self-loop: no full-duplex link at all.
  graph::Digraph one_way(4);
  for (const auto& [t, h] : {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 2}})
    one_way.add_arc(t, h);
  one_way.finalize();
  expect_same_lists(one_way, "one-way");
  EXPECT_TRUE(maximal_matchings(one_way, Mode::kFullDuplex).empty());

  // Counts too large for the pairwise reference.
  const auto kautz23 = topology::kautz(2, 3);
  EXPECT_EQ(maximal_matchings(kautz23, Mode::kHalfDuplex).size(), 7136u);
  EXPECT_EQ(maximal_matchings(kautz23, Mode::kFullDuplex).size(), 197u);
  const auto k9 = topology::complete(9);
  EXPECT_EQ(maximal_matchings(k9, Mode::kHalfDuplex).size(), 15120u);
  EXPECT_EQ(maximal_matchings(k9, Mode::kFullDuplex).size(), 945u);
}

}  // namespace
}  // namespace sysgo::search
