#include "protocol/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "protocol/compiled.hpp"
#include "topology/classic.hpp"

namespace sysgo::protocol {
namespace {

// A t-round protocol is the schedule whose period is its t rounds.
SystolicSchedule make_path_protocol() {
  // P4 half-duplex protocol: rounds {0->1, 2->3}, {1->2}, {3->2}, {2->1, ...}
  SystolicSchedule p;
  p.n = 4;
  p.mode = Mode::kHalfDuplex;
  p.period = {{{{0, 1}, {2, 3}}}, {{{1, 2}}}, {{{2, 1}}}, {{{1, 0}, {3, 2}}}};
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
  SystolicSchedule p;
  p.n = 3;
  p.period = {{{{0, 1}, {1, 2}}}};  // vertex 1 in two arcs
  try {
    (void)CompiledSchedule::compile(p);
    ADD_FAILURE() << "a non-matching round compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("round 1"), std::string::npos);
  }
}

TEST(Protocol, ArcAbsentFromNetworkRejected) {
  SystolicSchedule p;
  p.n = 4;
  p.period = {{{{0, 3}}}};  // not a path edge
  const auto g = topology::path(4);
  try {
    (void)CompiledSchedule::compile(p, &g);
    ADD_FAILURE() << "an arc absent from the network compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
  }
}

TEST(Protocol, FullDuplexValidation) {
  SystolicSchedule p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  p.period = {{{{0, 1}, {1, 0}}}};
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p));
  p.period = {{{{0, 1}}}};  // missing the opposite arc
  EXPECT_THROW((void)CompiledSchedule::compile(p), std::invalid_argument);
}

TEST(Protocol, EmptyRoundsAreValid) {
  SystolicSchedule p;
  p.n = 3;
  p.period = {{}, {{{0, 1}}}};
  EXPECT_NO_THROW((void)CompiledSchedule::compile(p));
}

}  // namespace
}  // namespace sysgo::protocol
