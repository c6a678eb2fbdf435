#include "protocol/compiled.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "topology/classic.hpp"

namespace sysgo::protocol {
namespace {

using graph::Arc;

SystolicSchedule two_round_schedule() {
  SystolicSchedule s;
  s.n = 4;
  s.mode = Mode::kHalfDuplex;
  s.period = {{{{0, 1}, {2, 3}}}, {{{1, 2}}}};
  return s;
}

TEST(Compiled, RejectsEmptyPeriod) {
  SystolicSchedule s;
  s.n = 3;
  EXPECT_THROW((void)CompiledSchedule::compile(s), std::invalid_argument);
}

TEST(Compiled, RejectsNonMatchingRound) {
  auto s = two_round_schedule();
  s.period.push_back({{{0, 1}, {1, 2}}});  // vertex 1 twice
  EXPECT_THROW((void)CompiledSchedule::compile(s), std::invalid_argument);
}

TEST(Compiled, RejectsEndpointOutOfRange) {
  auto s = two_round_schedule();
  s.period[0].arcs.push_back({3, 7});
  EXPECT_THROW((void)CompiledSchedule::compile(s), std::invalid_argument);
}

TEST(Compiled, RejectsArcAbsentFromNetwork) {
  const auto s = two_round_schedule();
  const auto path = topology::path(4);  // no (0, 1)? path has it; use cycle gap
  EXPECT_NO_THROW((void)CompiledSchedule::compile(s, &path));
  SystolicSchedule bad = s;
  bad.period[1].arcs = {{0, 3}};  // chord absent from the path
  EXPECT_THROW((void)CompiledSchedule::compile(bad, &path),
               std::invalid_argument);
}

TEST(Compiled, RejectsFullDuplexRoundMissingOpposite) {
  SystolicSchedule s;
  s.n = 3;
  s.mode = Mode::kFullDuplex;
  s.period = {{{{0, 1}}}};  // (1, 0) missing
  EXPECT_THROW((void)CompiledSchedule::compile(s), std::invalid_argument);
}

TEST(Compiled, FlatSpansMatchAuthoredRounds) {
  const auto s = two_round_schedule();
  const auto cs = CompiledSchedule::compile(s);
  EXPECT_EQ(cs.n(), 4);
  EXPECT_EQ(cs.mode(), Mode::kHalfDuplex);
  ASSERT_EQ(cs.period_length(), 2);
  EXPECT_EQ(cs.arc_total(), 3u);
  const auto r0 = cs.round_arcs(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0], (Arc{0, 1}));
  EXPECT_EQ(r0[1], (Arc{2, 3}));
  const auto r1 = cs.round_arcs(1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0], (Arc{1, 2}));
}

TEST(Compiled, FullDuplexPairsRepresentBothArcs) {
  const auto sched = protocol::hypercube_schedule(3, Mode::kFullDuplex);
  const auto cs = CompiledSchedule::compile(sched);
  for (int r = 0; r < cs.period_length(); ++r) {
    const auto arcs = cs.round_arcs(r);
    const auto pairs = cs.round_pairs(r);
    EXPECT_EQ(pairs.size() * 2, arcs.size());
    for (const auto& p : pairs) {
      EXPECT_LT(p.tail, p.head);
      // Both directions present in the arc span.
      EXPECT_TRUE(std::find(arcs.begin(), arcs.end(), Arc{p.tail, p.head}) !=
                  arcs.end());
      EXPECT_TRUE(std::find(arcs.begin(), arcs.end(), Arc{p.head, p.tail}) !=
                  arcs.end());
    }
  }
}

TEST(Compiled, RoundIndexWrapsThePeriod) {
  const auto cs = CompiledSchedule::compile(two_round_schedule());
  EXPECT_EQ(cs.round_index(1), 0);
  EXPECT_EQ(cs.round_index(2), 1);
  EXPECT_EQ(cs.round_index(3), 0);
  EXPECT_EQ(cs.round_index(18), 1);
}

TEST(Compiled, EqualityIgnoresAuthoredArcOrder) {
  auto a = two_round_schedule();
  auto b = two_round_schedule();
  std::reverse(b.period[0].arcs.begin(), b.period[0].arcs.end());
  EXPECT_TRUE(CompiledSchedule::compile(a) == CompiledSchedule::compile(b));

  auto c = two_round_schedule();
  c.period[1].arcs = {{2, 1}};  // different direction: different schedule
  EXPECT_FALSE(CompiledSchedule::compile(a) == CompiledSchedule::compile(c));
}

TEST(Compiled, RejectsDuplicateArc) {
  // A duplicated arc is not a matching; it must fail, not be canonicalized
  // away.
  SystolicSchedule s;
  s.n = 2;
  s.period = {{{{0, 1}, {0, 1}}}};
  EXPECT_THROW((void)CompiledSchedule::compile(s), std::invalid_argument);
}

TEST(Compiled, RoundIndexRejectsNonPositiveSteps) {
  const auto cs = CompiledSchedule::compile(two_round_schedule());
  EXPECT_THROW((void)cs.round_index(0), std::out_of_range);
  EXPECT_THROW((void)cs.round_index(-3), std::out_of_range);
  // A default-constructed schedule has no period to wrap (x % 0).
  EXPECT_THROW((void)CompiledSchedule{}.round_index(1), std::out_of_range);
}

}  // namespace
}  // namespace sysgo::protocol
