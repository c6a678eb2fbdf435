#include "protocol/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "protocol/compiled.hpp"
#include "topology/classic.hpp"

namespace sysgo::protocol {
namespace {

Protocol make_path_protocol() {
  // P4 half-duplex protocol: rounds {0->1, 2->3}, {1->2}, {3->2}, {2->1, ...}
  Protocol p;
  p.n = 4;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}, {2, 3}}}, {{{1, 2}}}, {{{2, 1}}}, {{{1, 0}, {3, 2}}}};
  return p;
}

TEST(Protocol, RoundCanonicalizeSortsAndDeduplicates) {
  Round r{{{2, 3}, {0, 1}, {2, 3}}};
  r.canonicalize();
  ASSERT_EQ(r.arcs.size(), 2u);
  EXPECT_EQ(r.arcs[0], (Arc{0, 1}));
  EXPECT_EQ(r.arcs[1], (Arc{2, 3}));
}

TEST(Protocol, ValidStructureAccepted) {
  const auto p = make_path_protocol();
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p));
  const auto g = topology::path(4);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p, &g));
}

TEST(Protocol, NonMatchingRoundRejected) {
  Protocol p;
  p.n = 3;
  p.rounds = {{{{0, 1}, {1, 2}}}};  // vertex 1 in two arcs
  try {
    (void)CompiledSchedule::compile(p);
    ADD_FAILURE() << "a non-matching round compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("round 1"), std::string::npos);
  }
}

TEST(Protocol, ArcAbsentFromNetworkRejected) {
  Protocol p;
  p.n = 4;
  p.rounds = {{{{0, 3}}}};  // not a path edge
  const auto g = topology::path(4);
  try {
    (void)CompiledSchedule::compile(p, &g);
    ADD_FAILURE() << "an arc absent from the network compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
  }
}

TEST(Protocol, FullDuplexValidation) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  p.rounds = {{{{0, 1}, {1, 0}}}};
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p));
  p.rounds = {{{{0, 1}}}};  // missing the opposite arc
  EXPECT_THROW((void)CompiledSchedule::compile(p), std::invalid_argument);
}

TEST(Protocol, SystolicDetection) {
  Protocol p;
  p.n = 4;
  Round a{{{0, 1}}}, b{{{2, 3}}};
  p.rounds = {a, b, a, b, a};
  EXPECT_TRUE(is_systolic(p, 2));
  EXPECT_FALSE(is_systolic(p, 3));
  EXPECT_TRUE(is_systolic(p, 4));  // multiples of the period qualify
  EXPECT_EQ(minimal_period(p), 2);
}

TEST(Protocol, SystolicComparesRoundsAsSets) {
  Protocol p;
  p.n = 4;
  Round a{{{0, 1}, {2, 3}}};
  Round a_permuted{{{2, 3}, {0, 1}}};
  p.rounds = {a, a_permuted, a};
  EXPECT_TRUE(is_systolic(p, 1));
  EXPECT_EQ(minimal_period(p), 1);
}

TEST(Protocol, AperiodicProtocolHasFullPeriod) {
  Protocol p;
  p.n = 6;
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}, {{{2, 3}}}, {{{3, 4}}}};
  EXPECT_EQ(minimal_period(p), 4);
}

TEST(Protocol, NonPositivePeriodRejected) {
  const auto p = make_path_protocol();
  EXPECT_FALSE(is_systolic(p, 0));
  EXPECT_FALSE(is_systolic(p, -1));
}

TEST(Protocol, EmptyRoundsAreValid) {
  Protocol p;
  p.n = 3;
  p.rounds = {{}, {{{0, 1}}}};
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p));
}

}  // namespace
}  // namespace sysgo::protocol
