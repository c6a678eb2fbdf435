#include "topology/classic.hpp"

#include <gtest/gtest.h>

#include "graph/search.hpp"

namespace sysgo::topology {
namespace {

TEST(Classic, PathStructure) {
  const auto g = path(6);
  EXPECT_EQ(g.vertex_count(), 6);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.out_degree(3), 2);
  EXPECT_EQ(graph::diameter(g), 5);
}

TEST(Classic, SingleVertexPath) {
  const auto g = path(1);
  EXPECT_EQ(g.vertex_count(), 1);
  EXPECT_EQ(g.arc_count(), 0u);
}

TEST(Classic, CycleStructure) {
  const auto g = cycle(7);
  for (int v = 0; v < 7; ++v) EXPECT_EQ(g.out_degree(v), 2);
  EXPECT_EQ(graph::diameter(g), 3);
}

TEST(Classic, GridStructure) {
  const auto g = grid(3, 4);
  EXPECT_EQ(g.vertex_count(), 12);
  EXPECT_EQ(g.out_degree(0), 2);       // corner
  EXPECT_EQ(g.out_degree(1), 3);       // edge
  EXPECT_EQ(g.out_degree(1 * 4 + 1), 4);  // interior
  EXPECT_EQ(graph::diameter(g), 2 + 3);
}

TEST(Classic, TorusIsRegular) {
  const auto g = torus(4, 5);
  for (int v = 0; v < g.vertex_count(); ++v) EXPECT_EQ(g.out_degree(v), 4);
  EXPECT_EQ(graph::diameter(g), 2 + 2);
}

TEST(Classic, CompleteGraph) {
  const auto g = complete(5);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 4);
  EXPECT_EQ(g.arc_count(), 20u);
}

TEST(Classic, CompleteGraphIsCappedWithANamedLimit) {
  try {
    (void)complete(kMaxCompleteOrder + 1);
    ADD_FAILURE() << "complete(kMaxCompleteOrder + 1) built";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "complete: too large");
  }
}

TEST(Classic, HypercubeStructure) {
  const auto g = hypercube(4);
  EXPECT_EQ(g.vertex_count(), 16);
  for (int v = 0; v < 16; ++v) EXPECT_EQ(g.out_degree(v), 4);
  EXPECT_EQ(graph::diameter(g), 4);
}

TEST(Classic, CompleteTreeStructure) {
  // Binary tree of height 2: 1 + 2 + 4 = 7 vertices.
  const auto g = complete_tree(2, 2);
  EXPECT_EQ(g.vertex_count(), 7);
  EXPECT_EQ(g.out_degree(0), 2);  // root
  EXPECT_EQ(g.out_degree(1), 3);  // internal
  EXPECT_EQ(g.out_degree(3), 1);  // leaf
  EXPECT_EQ(graph::diameter(g), 4);
}

TEST(Classic, TernaryTreeOrder) {
  // Ternary tree of height 2: 1 + 3 + 9 = 13.
  EXPECT_EQ(complete_tree(3, 2).vertex_count(), 13);
}

TEST(Classic, RejectsBadParameters) {
  EXPECT_THROW((void)path(0), std::invalid_argument);
  EXPECT_THROW((void)cycle(2), std::invalid_argument);
  EXPECT_THROW((void)grid(0, 3), std::invalid_argument);
  EXPECT_THROW((void)torus(2, 3), std::invalid_argument);
  EXPECT_THROW((void)complete(1), std::invalid_argument);
  EXPECT_THROW((void)hypercube(0), std::invalid_argument);
  EXPECT_THROW((void)complete_tree(1, 2), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::topology
