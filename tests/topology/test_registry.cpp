#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include "graph/search.hpp"
#include "topology/butterfly.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/knodel.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace sysgo::topology {
namespace {

TEST(Registry, NamesMatchPaperNotation) {
  EXPECT_EQ(family_name(Family::kButterfly, 2), "BF(2,D)");
  EXPECT_EQ(family_name(Family::kWrappedButterfly, 3), "WBF(3,D)");
  EXPECT_EQ(family_name(Family::kDeBruijnDirected, 2), "DB->(2,D)");
  EXPECT_EQ(family_name(Family::kKautz, 2), "K(2,D)");
}

TEST(Registry, FactoryOrdersMatchDirectConstructors) {
  EXPECT_EQ(make_family(Family::kButterfly, 2, 3).vertex_count(),
            butterfly(2, 3).vertex_count());
  EXPECT_EQ(make_family(Family::kWrappedButterfly, 2, 3).vertex_count(),
            wrapped_butterfly(2, 3).vertex_count());
  EXPECT_EQ(make_family(Family::kDeBruijn, 2, 4).vertex_count(),
            de_bruijn(2, 4).vertex_count());
  EXPECT_EQ(make_family(Family::kKautzDirected, 2, 3).vertex_count(),
            kautz_directed(2, 3).vertex_count());
}

TEST(Registry, SymmetryFlagsMatchGraphs) {
  for (Family f : {Family::kButterfly, Family::kWrappedButterflyDirected,
                   Family::kWrappedButterfly, Family::kDeBruijnDirected,
                   Family::kDeBruijn, Family::kKautzDirected, Family::kKautz}) {
    const auto g = make_family(f, 2, 3);
    EXPECT_EQ(g.is_symmetric(), family_is_symmetric(f)) << family_name(f, 2);
  }
}

TEST(Registry, AllFamiliesStronglyConnected) {
  for (Family f : {Family::kButterfly, Family::kWrappedButterflyDirected,
                   Family::kWrappedButterfly, Family::kDeBruijnDirected,
                   Family::kDeBruijn, Family::kKautzDirected, Family::kKautz}) {
    EXPECT_TRUE(graph::is_strongly_connected(make_family(f, 2, 3)))
        << family_name(f, 2);
  }
}

TEST(Registry, ClassicFamiliesMatchDirectConstructors) {
  EXPECT_EQ(make_family(Family::kCycle, 2, 7).vertex_count(), 7);
  EXPECT_EQ(make_family(Family::kComplete, 2, 5).arc_count(),
            complete(5).arc_count());
  EXPECT_EQ(make_family(Family::kHypercube, 2, 4).vertex_count(), 16);
  EXPECT_EQ(make_family(Family::kCubeConnectedCycles, 2, 3).vertex_count(),
            3 * 8);
  EXPECT_EQ(make_family(Family::kShuffleExchange, 2, 3).vertex_count(), 8);
  // For Knödel the dimension is the vertex count and d the Δ parameter.
  EXPECT_EQ(make_family(Family::kKnodel, 3, 8).arc_count(),
            knodel(3, 8).arc_count());
}

// family_order applies complete()'s size cap without building anything,
// so the CLI and the engine reject an oversized K_n by name.
TEST(Registry, CompleteFamilyOrderIsCapped) {
  EXPECT_EQ(family_order(Family::kComplete, 2, kMaxCompleteOrder),
            kMaxCompleteOrder);
  for (const int n : {kMaxCompleteOrder + 1, 1000000}) {
    try {
      (void)family_order(Family::kComplete, 2, n);
      ADD_FAILURE() << "family_order accepted K_" << n;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "complete: too large");
    }
  }
}

TEST(Registry, ClassicFamiliesAreSymmetricAndNamed) {
  for (Family f : {Family::kCycle, Family::kComplete, Family::kHypercube,
                   Family::kCubeConnectedCycles, Family::kShuffleExchange,
                   Family::kKnodel}) {
    EXPECT_TRUE(family_is_symmetric(f));
    EXPECT_FALSE(family_has_separator_analysis(f));
    EXPECT_FALSE(family_name(f, 2).empty());
  }
  for (Family f : {Family::kButterfly, Family::kDeBruijnDirected,
                   Family::kKautz}) {
    EXPECT_TRUE(family_has_separator_analysis(f));
  }
  EXPECT_EQ(family_name(Family::kKnodel, 3), "W(3,D)");
  EXPECT_EQ(family_name(Family::kCubeConnectedCycles, 2), "CCC(D)");
}

}  // namespace
}  // namespace sysgo::topology
