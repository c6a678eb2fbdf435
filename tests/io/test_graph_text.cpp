#include "io/graph_text.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "topology/classic.hpp"
#include "topology/kautz.hpp"

namespace sysgo::io {
namespace {

TEST(GraphText, SerializeFormat) {
  graph::Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(2, 0);
  g.finalize();
  const auto text = serialize(g);
  EXPECT_NE(text.find("sysgo-digraph v1"), std::string::npos);
  EXPECT_NE(text.find("n 3"), std::string::npos);
  EXPECT_NE(text.find("arc 0 1"), std::string::npos);
  EXPECT_NE(text.find("arc 2 0"), std::string::npos);
}

TEST(GraphText, RoundTripPreservesArcs) {
  for (const auto& g : {topology::cycle(7), topology::kautz_directed(2, 3)}) {
    const auto h = parse_digraph(serialize(g));
    EXPECT_EQ(h.vertex_count(), g.vertex_count());
    ASSERT_EQ(h.arc_count(), g.arc_count());
    for (const auto& a : g.arcs()) EXPECT_TRUE(h.has_arc(a.tail, a.head));
  }
}

TEST(GraphText, EmptyGraphRoundTrips) {
  graph::Digraph g(4);
  g.finalize();
  const auto h = parse_digraph(serialize(g));
  EXPECT_EQ(h.vertex_count(), 4);
  EXPECT_EQ(h.arc_count(), 0u);
}

TEST(GraphText, RejectsMalformedInput) {
  // Each expected message prefix names the offending line.  An arc is one
  // whole line, so a split arc, two arcs on one line and a one-line
  // document are errors; an overflowing or oversized n fails before any
  // allocation.
  const std::pair<const char*, const char*> cases[] = {
      {"nonsense", "graph_text: line 1: "},
      {"sysgo-digraph v2\nn 2\n", "graph_text: line 1: "},
      {"sysgo-digraph v1 n 2 arc 0 1\n", "graph_text: line 1: "},
      {"sysgo-digraph v1\nm 2\n", "graph_text: line 2: "},
      {"sysgo-digraph v1\nn 4x\n", "graph_text: line 2: "},
      {"sysgo-digraph v1\nn 99999999999\n", "graph_text: line 2: "},
      {"sysgo-digraph v1\nn 2147483647\n",
       "graph_text: line 2: n must be in [0, 4194304]"},
      {"sysgo-digraph v1\nn 2\nedge 0 1\n", "graph_text: line 3: "},
      {"sysgo-digraph v1\nn 2\narc 0\n", "graph_text: line 3: "},
      {"sysgo-digraph v1\nn 2\narc 0\n1\n", "graph_text: line 3: "},
      {"sysgo-digraph v1\nn 3\narc 0 1 arc 1 2\n", "graph_text: line 3: "},
      {"sysgo-digraph v1\nn 2\narc 0x 1\n", "graph_text: line 3: "},
      {"sysgo-digraph v1\nn 3\narc 0 1\n\narc 1 99999999999\n",
       "graph_text: line 5: "},
  };
  for (const auto& [text, prefix] : cases) {
    try {
      (void)parse_digraph(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
          << text << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << text << ": not std::invalid_argument: " << e.what();
    }
  }
}

TEST(GraphText, RejectsOutOfRangeArc) {
  try {
    (void)parse_digraph("sysgo-digraph v1\nn 2\narc 0 1\narc 0 5\n");
    ADD_FAILURE() << "accepted an out-of-range endpoint";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()).rfind("graph_text: line 4: ", 0), 0u)
        << e.what();
  }
}

}  // namespace
}  // namespace sysgo::io
