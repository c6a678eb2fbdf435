#include "protocol/systolic.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "protocol/compiled.hpp"
#include "topology/classic.hpp"

namespace sysgo::protocol {
namespace {

SystolicSchedule two_round_schedule() {
  SystolicSchedule s;
  s.n = 4;
  s.mode = Mode::kHalfDuplex;
  s.period = {{{{0, 1}, {2, 3}}}, {{{1, 2}}}};
  return s;
}

TEST(Systolic, RoundAtCyclesThroughPeriod) {
  const auto s = two_round_schedule();
  EXPECT_EQ(s.round_at(1), s.period[0]);
  EXPECT_EQ(s.round_at(2), s.period[1]);
  EXPECT_EQ(s.round_at(3), s.period[0]);
  EXPECT_EQ(s.round_at(17), s.period[0]);
  EXPECT_EQ(s.round_at(18), s.period[1]);
}

TEST(Systolic, ExpandProducesSystolicProtocol) {
  const auto s = two_round_schedule();
  const auto p = s.expand(7);
  EXPECT_EQ(p.length(), 7);
  EXPECT_EQ(p.n, 4);
  EXPECT_TRUE(is_systolic(p, 2));
  EXPECT_EQ(minimal_period(p), 2);
}

TEST(Systolic, ExpandZeroRounds) {
  const auto p = two_round_schedule().expand(0);
  EXPECT_EQ(p.length(), 0);
}

// Regression: round_at used to compute (i - 1) % 0 on an empty period —
// UB.  Empty periods now fail loudly everywhere.
TEST(Systolic, EmptyPeriodFailsLoudly) {
  SystolicSchedule s;
  s.n = 3;
  EXPECT_THROW((void)s.round_at(1), std::logic_error);
  EXPECT_THROW((void)s.expand(5), std::logic_error);
  EXPECT_EQ(s.expand(0).length(), 0);  // nothing to materialize: fine
  try {
    (void)CompiledSchedule::compile(s);
    ADD_FAILURE() << "an empty period compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
  }
}

TEST(Systolic, CompileValidatesThePeriod) {
  auto s = two_round_schedule();
  EXPECT_NO_THROW((void)CompiledSchedule::compile(s));
  const auto g = topology::path(4);
  EXPECT_NO_THROW((void)CompiledSchedule::compile(s, &g));
  s.period.push_back({{{0, 1}, {1, 2}}});  // not a matching
  EXPECT_THROW((void)CompiledSchedule::compile(s), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::protocol
