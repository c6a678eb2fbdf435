#include "protocol/tree_protocols.hpp"

#include <gtest/gtest.h>

#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"

namespace sysgo::protocol {
namespace {

TEST(TreeProtocols, StructurallyValidAgainstTree) {
  for (int d : {2, 3})
    for (int height : {1, 2, 3}) {
      const auto g = topology::complete_tree(d, height);
      for (auto mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
        const auto sched = tree_schedule(d, height, mode);
        EXPECT_EQ(sched.n, g.vertex_count());
        EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g))
            << "d=" << d << " h=" << height;
      }
    }
}

TEST(TreeProtocols, PeriodIsAtMostTwoDPlusTwo) {
  // Trees are class 1: d+1 colors; half-duplex doubles the period.
  const auto hd = tree_schedule(2, 3, Mode::kHalfDuplex);
  EXPECT_LE(hd.period_length(), 2 * (2 + 1));
  const auto fd = tree_schedule(3, 2, Mode::kFullDuplex);
  EXPECT_LE(fd.period_length(), 3 + 1);
}

TEST(TreeProtocols, EveryEdgeActivatedBothWays) {
  const int d = 2, height = 3;
  const auto g = topology::complete_tree(d, height);
  const auto sched = tree_schedule(d, height, Mode::kHalfDuplex);
  std::set<std::pair<int, int>> activated;
  for (const auto& r : sched.period)
    for (const auto& a : r.arcs) activated.insert({a.tail, a.head});
  EXPECT_EQ(activated.size(), g.arc_count());
}

TEST(TreeProtocols, AchievesGossip) {
  for (auto mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto sched = tree_schedule(2, 3, mode);
    const int t = simulator::gossip_time(CompiledSchedule::compile(sched), 2000);
    EXPECT_GT(t, 0) << static_cast<int>(mode);
    // Gossip must cross the tree twice: t >= 2*height (full duplex).
    EXPECT_GE(t, 2 * 3);
  }
}

TEST(TreeProtocols, TernaryTreeGossips) {
  const auto sched = tree_schedule(3, 2, Mode::kHalfDuplex);
  EXPECT_GT(simulator::gossip_time(CompiledSchedule::compile(sched), 2000), 0);
}

TEST(TreeProtocols, RejectsBadParameters) {
  EXPECT_THROW((void)tree_schedule(1, 2, Mode::kHalfDuplex), std::invalid_argument);
  EXPECT_THROW((void)tree_schedule(2, 0, Mode::kHalfDuplex), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::protocol
