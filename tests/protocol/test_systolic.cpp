#include "protocol/systolic.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
