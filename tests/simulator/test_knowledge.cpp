#include "simulator/knowledge.hpp"

#include <gtest/gtest.h>

namespace sysgo::simulator {
namespace {

// One-link rounds: dst's row |= src's row, and the full-duplex exchange.
std::int64_t merge_into(KnowledgeMatrix& k, int dst, int src) {
  const graph::Arc arc{src, dst};
  return k.merge_arcs({&arc, 1});
}

std::int64_t merge_both(KnowledgeMatrix& k, int a, int b) {
  const graph::Arc pair{a, b};
  return k.merge_pairs({&pair, 1});
}

TEST(Knowledge, InitialStateIsOwnItemOnly) {
  KnowledgeMatrix k(5);
  for (int v = 0; v < 5; ++v) {
    EXPECT_EQ(k.count(v), 1);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(k.knows(v, i), v == i);
  }
  EXPECT_FALSE(k.all_full());
}

TEST(Knowledge, SingleVertexIsImmediatelyFull) {
  KnowledgeMatrix k(1);
  EXPECT_TRUE(k.all_full());
}

TEST(Knowledge, LearnAndCount) {
  KnowledgeMatrix k(4);
  k.learn(0, 3);
  EXPECT_TRUE(k.knows(0, 3));
  EXPECT_EQ(k.count(0), 2);
  k.learn(0, 3);  // idempotent
  EXPECT_EQ(k.count(0), 2);
}

TEST(Knowledge, MergeIntoIsUnion) {
  KnowledgeMatrix k(4);
  k.learn(0, 1);
  EXPECT_EQ(merge_into(k, 2, 0), 2);
  EXPECT_TRUE(k.knows(2, 0));
  EXPECT_TRUE(k.knows(2, 1));
  EXPECT_TRUE(k.knows(2, 2));
  EXPECT_EQ(k.count(2), 3);
  // Source unchanged.
  EXPECT_EQ(k.count(0), 2);
}

TEST(Knowledge, MergeBothSymmetric) {
  KnowledgeMatrix k(4);
  k.learn(0, 1);
  k.learn(3, 2);
  EXPECT_EQ(merge_both(k, 0, 3), 4);
  for (int v : {0, 3}) {
    EXPECT_TRUE(k.knows(v, 0));
    EXPECT_TRUE(k.knows(v, 1));
    EXPECT_TRUE(k.knows(v, 2));
    EXPECT_TRUE(k.knows(v, 3));
    EXPECT_EQ(k.count(v), 4);
    EXPECT_TRUE(k.row_full(v));
  }
}

TEST(Knowledge, WorksAcrossWordBoundary) {
  // n > 64 exercises multi-word rows.
  const int n = 130;
  KnowledgeMatrix k(n);
  for (int i = 0; i < n; ++i) k.learn(0, i);
  EXPECT_TRUE(k.row_full(0));
  EXPECT_EQ(k.count(0), n);
  EXPECT_EQ(merge_into(k, 64, 0), n - 1);
  EXPECT_TRUE(k.row_full(64));
  EXPECT_FALSE(k.all_full());
}

TEST(Knowledge, AllFullAfterCompleteDissemination) {
  const int n = 70;
  KnowledgeMatrix k(n);
  for (int v = 1; v < n; ++v) merge_both(k, 0, v);
  // After star merges, vertex 0 knows everything but early vertices do not.
  EXPECT_TRUE(k.row_full(0));
  for (int v = 1; v < n; ++v) merge_into(k, v, 0);
  EXPECT_TRUE(k.all_full());
}

}  // namespace
}  // namespace sysgo::simulator
