#include "protocol/builders.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/matching.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"

namespace sysgo::protocol {
namespace {

TEST(Builders, EdgeColoringHalfDuplexValid) {
  const auto g = topology::cycle(8);
  const auto sched = edge_coloring_schedule(g, Mode::kHalfDuplex);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g));
  EXPECT_EQ(sched.period_length() % 2, 0);  // two rounds per color
}

TEST(Builders, EdgeColoringFullDuplexValid) {
  const auto g = topology::grid(3, 3);
  const auto sched = edge_coloring_schedule(g, Mode::kFullDuplex);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g));
}

TEST(Builders, EdgeColoringCoversEveryArcOverOnePeriod) {
  const auto g = topology::cycle(6);
  const auto sched = edge_coloring_schedule(g, Mode::kHalfDuplex);
  std::set<std::pair<int, int>> activated;
  for (const auto& r : sched.period)
    for (const auto& a : r.arcs) activated.insert({a.tail, a.head});
  EXPECT_EQ(activated.size(), g.arc_count());  // both directions of each edge
}

TEST(Builders, EdgeColoringAchievesGossipOnSmallGraphs) {
  for (auto mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto g = topology::cycle(6);
    const auto sched = edge_coloring_schedule(g, mode);
    const int t = simulator::gossip_time(CompiledSchedule::compile(sched), 200);
    EXPECT_GT(t, 0) << "mode " << static_cast<int>(mode);
  }
}

TEST(Builders, EdgeColoringOnDeBruijn) {
  const auto g = topology::de_bruijn(2, 4);
  const auto sched = edge_coloring_schedule(g, Mode::kHalfDuplex);
  EXPECT_GT(simulator::gossip_time(CompiledSchedule::compile(sched, &g), 500), 0);
}

TEST(Builders, RandomScheduleValidHalfDuplex) {
  util::Rng rng(11);
  const auto g = topology::complete(9);
  const auto sched = random_systolic_schedule(g, 5, Mode::kHalfDuplex, rng);
  EXPECT_EQ(sched.period_length(), 5);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g));
}

TEST(Builders, RandomScheduleValidFullDuplex) {
  util::Rng rng(13);
  const auto g = topology::complete(8);
  const auto sched = random_systolic_schedule(g, 4, Mode::kFullDuplex, rng);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g));
  for (const auto& r : sched.period)
    EXPECT_TRUE(graph::is_full_duplex_matching(r.arcs, 8));
}

TEST(Builders, RandomProtocolValid) {
  util::Rng rng(17);
  const auto g = topology::hypercube(3);
  const auto p = random_protocol(g, 12, Mode::kHalfDuplex, rng);
  EXPECT_EQ(p.length(), 12);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p, &g));
}

TEST(Builders, RandomProtocolDeterministicInSeed) {
  const auto g = topology::hypercube(3);
  util::Rng r1(5), r2(5);
  const auto p1 = random_protocol(g, 6, Mode::kHalfDuplex, r1);
  const auto p2 = random_protocol(g, 6, Mode::kHalfDuplex, r2);
  ASSERT_EQ(p1.rounds.size(), p2.rounds.size());
  for (std::size_t i = 0; i < p1.rounds.size(); ++i)
    EXPECT_EQ(p1.rounds[i], p2.rounds[i]);
}

}  // namespace
}  // namespace sysgo::protocol
