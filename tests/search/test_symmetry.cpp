#include "search/symmetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/digraph.hpp"
#include "search/state.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "topology/knodel.hpp"
#include "util/rng.hpp"

namespace sysgo::search {
namespace {

State permute_state(const State& s, const Perm& p, int n) {
  State out;
  for (int v = 0; v < n; ++v) {
    std::uint16_t row = 0;
    for (int u = 0; u < n; ++u)
      if ((s.rows[static_cast<std::size_t>(v)] >> u) & 1u)
        row = static_cast<std::uint16_t>(row | (1u << p[static_cast<std::size_t>(u)]));
    out.rows[static_cast<std::size_t>(p[static_cast<std::size_t>(v)])] = row;
  }
  return out;
}

TEST(VertexClasses, PathEndsDifferFromMiddle) {
  const auto color = vertex_classes(topology::path(4));
  EXPECT_EQ(color[0], color[3]);  // ends
  EXPECT_EQ(color[1], color[2]);  // middles
  EXPECT_NE(color[0], color[1]);
}

TEST(VertexClasses, VertexTransitiveGraphIsOneClass) {
  for (const auto& g : {topology::cycle(7), topology::hypercube(3),
                        topology::complete(5)}) {
    const auto color = vertex_classes(g);
    EXPECT_EQ(*std::max_element(color.begin(), color.end()), 0);
  }
}

TEST(Automorphisms, KnownGroupOrders) {
  EXPECT_EQ(automorphisms(topology::path(4)).order(), 2u);        // reversal
  EXPECT_EQ(automorphisms(topology::cycle(6)).order(), 12u);      // dihedral
  EXPECT_EQ(automorphisms(topology::complete(4)).order(), 24u);   // S4
  EXPECT_EQ(automorphisms(topology::hypercube(3)).order(), 48u);  // 2^3 * 3!
  EXPECT_EQ(automorphisms(topology::knodel(3, 8)).order(), 48u);
}

TEST(Automorphisms, IdentityFirstAndAllValid) {
  const auto g = topology::cycle(5);
  const auto group = automorphisms(g);
  ASSERT_FALSE(group.perms.empty());
  for (int v = 0; v < 5; ++v) EXPECT_EQ(group.perms[0][static_cast<std::size_t>(v)], v);
  for (const Perm& p : group.perms)
    for (const auto& a : g.arcs())
      EXPECT_TRUE(g.has_arc(p[static_cast<std::size_t>(a.tail)],
                            p[static_cast<std::size_t>(a.head)]));
}

TEST(Automorphisms, CapFallsBackToIdentityOnly) {
  // |Aut(K6)| = 720 > 100: the enumeration must return the identity-only
  // subgroup (a truncated non-closed set would merge distinct orbits).
  const auto group = automorphisms(topology::complete(6), 100);
  EXPECT_FALSE(group.complete);
  EXPECT_EQ(group.order(), 1u);
}

TEST(Automorphisms, StabilizerFixesVertex) {
  const auto group = automorphisms(topology::cycle(6));
  const auto stab = vertex_stabilizer(group, 2);
  EXPECT_EQ(stab.order(), 2u);  // identity + the reflection fixing 2
  for (const Perm& p : stab.perms) EXPECT_EQ(p[2], 2);
}

TEST(Canonicalizer, OrbitInvariance) {
  const auto g = topology::hypercube(3);
  const auto group = automorphisms(g);
  const Canonicalizer canon(8, group);
  util::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    State s;
    for (int v = 0; v < 8; ++v)
      s.rows[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(
          (rng.engine()() & 0xffu) | (1u << v));
    const State c = canon.canonical(s);
    // Canonical form is identical for every orbit element, and minimal.
    for (std::size_t i = 0; i < group.order(); i += 7) {
      const State t = permute_state(s, group.perms[i], 8);
      EXPECT_EQ(canon.canonical(t), c);
      EXPECT_LE(c, t);
    }
  }
}

TEST(Canonicalizer, ReportsAchievingPermutation) {
  const auto g = topology::cycle(6);
  const Canonicalizer canon(6, automorphisms(g));
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    State s;
    for (int v = 0; v < 6; ++v)
      s.rows[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(
          (rng.engine()() & 0x3fu) | (1u << v));
    std::size_t idx;
    const State c = canon.canonical(s, &idx);
    EXPECT_EQ(permute_state(s, canon.perm(idx), 6), c);
  }
}

TEST(Canonicalizer, CanonicalMaskIsOrbitMinimum) {
  const auto g = topology::cycle(4);
  const auto group = automorphisms(g);  // dihedral, order 8
  const Canonicalizer canon(4, group);
  // Orbit of {1} under D4 contains {0}; minimum mask is 0b0001.
  EXPECT_EQ(canon.canonical_mask(0b0010), 0b0001);
  // Adjacent pair {1,2} maps to minimal adjacent pair {0,1}.
  EXPECT_EQ(canon.canonical_mask(0b0110), 0b0011);
  // Antipodal pair {0,2} is already minimal among {0,2},{1,3}.
  EXPECT_EQ(canon.canonical_mask(0b1010), 0b0101);
}

TEST(Canonicalizer, GossipEndpointsAreFixedPoints) {
  const auto g = topology::knodel(2, 6);
  const Canonicalizer canon(6, automorphisms(g));
  EXPECT_EQ(canon.canonical(initial_gossip_state(6)), initial_gossip_state(6));
  EXPECT_EQ(canon.canonical(gossip_goal_state(6)), gossip_goal_state(6));
}

TEST(Canonicalizer, MatchesBruteForceOrbitMinimum) {
  // Brute force over every group element: the canonical state is the
  // minimum of permute_state, perm_index the LOWEST index reaching it, and
  // canonical_mask the minimum image of the mask.  Sparse states (density
  // 0 is the diagonal itself) have large stabilizers, so many elements tie
  // on the minimum and the index rule is exercised.
  struct Case {
    const char* name;
    int n;
    AutomorphismGroup group;
    std::size_t order;
  };
  const auto kautz_group = automorphisms(topology::kautz(2, 3));
  AutomorphismGroup identity_only = automorphisms(topology::complete(6), 100);
  // Four disjoint directed triangles: each rotates (3^4) and the triangles
  // permute (4!), so 1,944 elements in runs of 162 per source of row 0.
  graph::Digraph triangles(12);
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 3; ++i) triangles.add_arc(3 * c + i, 3 * c + (i + 1) % 3);
  triangles.finalize();
  std::vector<Case> cases;
  cases.push_back({"K6", 6, automorphisms(topology::complete(6)), 720});
  cases.push_back({"C7", 7, automorphisms(topology::cycle(7)), 14});
  cases.push_back({"Q3", 8, automorphisms(topology::hypercube(3)), 48});
  // n = 12 exercises the table of bits 6..11.
  cases.push_back({"C12", 12, automorphisms(topology::cycle(12)), 24});
  cases.push_back({"Kautz(2,3)", 12, kautz_group, 12});
  cases.push_back({"Kautz(2,3) stab 0", 12, vertex_stabilizer(kautz_group, 0), 2});
  cases.push_back({"identity only", 6, identity_only, 1});
  cases.push_back({"4 x C3 directed", 12, automorphisms(triangles), 1944});
  util::Rng rng(20260);
  for (const auto& c : cases) {
    ASSERT_EQ(c.group.order(), c.order) << c.name;
    const Canonicalizer canon(c.n, c.group);
    const unsigned full = (1u << c.n) - 1u;
    for (int trial = 0; trial < 300; ++trial) {
      const unsigned density = static_cast<unsigned>(trial % 5);  // of 8
      State s;
      for (int v = 0; v < c.n; ++v) {
        unsigned row = 1u << v;
        for (int u = 0; u < c.n; ++u)
          if ((rng.engine()() & 7u) < density) row |= 1u << u;
        s.rows[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(row);
      }
      State want = permute_state(s, c.group.perms[0], c.n);
      std::size_t want_index = 0;
      for (std::size_t i = 1; i < c.group.order(); ++i) {
        const State t = permute_state(s, c.group.perms[i], c.n);
        if (t < want) {
          want = t;
          want_index = i;
        }
      }
      // The ties reported are the elements whose row 0 is the minimum's.
      std::uint64_t want_ties = 0;
      for (const Perm& p : c.group.perms)
        want_ties += permute_state(s, p, c.n).rows[0] == want.rows[0];
      std::size_t index = c.group.order();
      std::uint64_t ties = 0;
      EXPECT_EQ(canon.canonical(s, &index, &ties), want)
          << c.name << " trial " << trial;
      EXPECT_EQ(index, want_index) << c.name << " trial " << trial;
      EXPECT_EQ(ties, want_ties) << c.name << " trial " << trial;

      const auto mask = static_cast<std::uint16_t>(rng.engine()() & full);
      std::uint16_t want_mask = mask;
      for (const Perm& p : c.group.perms) {
        unsigned image = 0;
        for (int v = 0; v < c.n; ++v)
          if ((mask >> v) & 1u) image |= 1u << p[static_cast<std::size_t>(v)];
        want_mask = std::min(want_mask, static_cast<std::uint16_t>(image));
      }
      EXPECT_EQ(canon.canonical_mask(mask), want_mask) << c.name;
    }
  }
}

}  // namespace
}  // namespace sysgo::search
