#include "io/dot.hpp"

#include <gtest/gtest.h>

#include "protocol/classic_protocols.hpp"
#include "topology/classic.hpp"

namespace sysgo::io {
namespace {

TEST(Dot, UndirectedGraphRendersEdgesOnce) {
  const auto g = topology::path(3);
  const auto dot = to_dot(g, "P3");
  EXPECT_NE(dot.find("graph P3"), std::string::npos);
  EXPECT_EQ(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
  // One line per edge, not per arc.
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);
}

TEST(Dot, DirectedGraphUsesArrows) {
  graph::Digraph g(2);
  g.add_arc(0, 1);
  g.finalize();
  const auto dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1"), std::string::npos);
}

TEST(Dot, AllVerticesListed) {
  const auto dot = to_dot(topology::path(5));
  for (int v = 0; v < 5; ++v)
    EXPECT_NE(dot.find("  " + std::to_string(v) + ";"), std::string::npos);
}

TEST(Dot, DelayDigraphLabels) {
  const core::DelayDigraph dg(
      protocol::CompiledSchedule::compile(
          protocol::path_schedule(3, protocol::Mode::kHalfDuplex)),
      8);
  const auto dot = to_dot(dg);
  EXPECT_NE(dot.find("digraph DG"), std::string::npos);
  EXPECT_NE(dot.find("(0->1)@1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"1\""), std::string::npos);  // a delay-1 arc
}

TEST(Dot, OutputIsBalanced) {
  const auto dot = to_dot(topology::cycle(4));
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
}

}  // namespace
}  // namespace sysgo::io
