#include "engine/scenario.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "simulator/kernels.hpp"

namespace sysgo::engine {
namespace {

using topology::Family;
using protocol::Mode;

/// Every enumerator 0..count-1 of E maps to a distinct token that parses
/// back to it.
template <class E, class Name, class Parse>
void expect_tokens_round_trip(std::size_t count, Name name, Parse parse) {
  std::set<std::string> tokens;
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<E>(i);
    const std::string token(name(e));
    EXPECT_FALSE(token.empty()) << i;
    EXPECT_TRUE(tokens.insert(token).second) << "duplicate token " << token;
    EXPECT_EQ(parse(token), e) << token;
  }
}

TEST(Scenario, TokensRoundTrip) {
  expect_tokens_round_trip<Family>(
      topology::kFamilyCount, [](Family f) { return family_token(f); },
      [](const std::string& t) { return parse_family_token(t); });
  expect_tokens_round_trip<Task>(
      kTaskCount, [](Task t) { return task_name(t); },
      [](const std::string& t) { return parse_task_name(t); });
  expect_tokens_round_trip<Mode>(
      protocol::kModeCount, [](Mode m) { return mode_name(m); },
      [](const std::string& t) { return parse_mode_name(t); });
  using simulator::KernelKind;
  expect_tokens_round_trip<KernelKind>(
      static_cast<std::size_t>(simulator::kKernelKindCount),
      [](KernelKind k) { return simulator::kernel_name(k); },
      [](const std::string& t) {
        return simulator::parse_kernel_name(t).value();
      });
  EXPECT_EQ(registry_families().size(), topology::kFamilyCount);
  EXPECT_THROW((void)parse_family_token("nope"), std::invalid_argument);
  EXPECT_THROW((void)parse_task_name("nope"), std::invalid_argument);
  EXPECT_THROW((void)parse_mode_name("nope"), std::invalid_argument);
  EXPECT_FALSE(simulator::parse_kernel_name("nope").has_value());
}

TEST(Scenario, RegistryFamiliesExtendPaperFamilies) {
  const auto paper = all_families();
  const auto all = registry_families();
  ASSERT_EQ(paper.size(), 7u);
  ASSERT_EQ(all.size(), 15u);
  for (std::size_t i = 0; i < paper.size(); ++i) EXPECT_EQ(all[i], paper[i]);
}

TEST(Scenario, SolveTasksNeedDimension) {
  EXPECT_TRUE(task_needs_dimension(Task::kSolveGossip));
  EXPECT_TRUE(task_needs_dimension(Task::kSolveBroadcast));
  EXPECT_TRUE(task_needs_dimension(Task::kSynthesize));
  EXPECT_FALSE(task_needs_dimension(Task::kBound));
}

TEST(Scenario, GridExpansionCount) {
  ScenarioSpec spec;
  spec.families = {Family::kDeBruijn, Family::kKautz};
  spec.degrees = {2, 3};
  spec.dimensions = {3, 4, 5};
  spec.modes = {Mode::kHalfDuplex};
  spec.periods = {3, 4};
  spec.tasks = {Task::kBound, Task::kSimulate, Task::kAudit};
  const auto jobs = spec.expand();
  // kBound: 2 families × 2 degrees × 1 mode × 2 periods (D-independent),
  // kSimulate/kAudit: 2 × 2 × 3 dimensions × 1 mode each.
  EXPECT_EQ(jobs.size(), 2u * 2 * 2 + 2u * 2 * 3 * 2);
}

TEST(Scenario, ExpansionOrderIsFamilyMajorTasksInSpecOrder) {
  ScenarioSpec spec;
  spec.families = {Family::kDeBruijn, Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = {4};
  spec.periods = {3, 4};
  spec.tasks = {Task::kBound, Task::kSimulate};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 6u);
  // DB: bound s=3, bound s=4, simulate; then Kautz likewise.
  EXPECT_EQ(jobs[0].key.family, Family::kDeBruijn);
  EXPECT_EQ(jobs[0].task, Task::kBound);
  EXPECT_EQ(jobs[0].s, 3);
  EXPECT_EQ(jobs[0].key.D, 0);  // asymptotic jobs are D-normalized
  EXPECT_EQ(jobs[1].task, Task::kBound);
  EXPECT_EQ(jobs[1].s, 4);
  EXPECT_EQ(jobs[2].task, Task::kSimulate);
  EXPECT_EQ(jobs[2].key.D, 4);
  EXPECT_EQ(jobs[3].key.family, Family::kKautz);
  EXPECT_EQ(jobs[3].task, Task::kBound);
  EXPECT_EQ(jobs[5].task, Task::kSimulate);
}

TEST(Scenario, AsymptoticTasksDedupAcrossDimensions) {
  ScenarioSpec spec;
  spec.families = {Family::kDeBruijn};
  spec.degrees = {2};
  spec.dimensions = {3, 4, 5, 6};
  spec.periods = {4};
  spec.tasks = {Task::kBound, Task::kDiameterBound};
  const auto jobs = spec.expand();
  EXPECT_EQ(jobs.size(), 2u);  // once, not once per dimension
}

TEST(Scenario, EmptyDimensionsSkipsConcreteTasks) {
  ScenarioSpec spec;
  spec.families = {Family::kDeBruijn};
  spec.degrees = {2};
  spec.periods = {4};
  spec.tasks = {Task::kBound, Task::kSimulate, Task::kAudit};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].task, Task::kBound);
}

TEST(Scenario, DuplexOfModeMatchesCore) {
  EXPECT_EQ(duplex_of(Mode::kHalfDuplex), core::Duplex::kHalf);
  EXPECT_EQ(duplex_of(Mode::kFullDuplex), core::Duplex::kFull);
}

TEST(Scenario, SameResultIgnoresTiming) {
  SweepRecord a;
  a.key = {Family::kKautz, 2, 5, Mode::kHalfDuplex};
  a.task = Task::kAudit;
  SweepRecord b = a;
  b.millis = 99.0;
  EXPECT_TRUE(same_result(a, b));
  // Every result field, the key's four included: changing any one of them
  // makes the records differ.
  const std::vector<std::function<void(SweepRecord&)>> changes = {
      [](SweepRecord& r) { r.key.family = Family::kDeBruijn; },
      [](SweepRecord& r) { r.key.d = 3; },
      [](SweepRecord& r) { r.key.D = 6; },
      [](SweepRecord& r) { r.key.mode = Mode::kFullDuplex; },
      [](SweepRecord& r) { r.task = Task::kSimulate; },
      [](SweepRecord& r) { r.s = 4; },
      [](SweepRecord& r) { r.n = 12; },
      [](SweepRecord& r) { r.alpha = 0.5; },
      [](SweepRecord& r) { r.ell = 2.0; },
      [](SweepRecord& r) { r.e = 1.6; },
      [](SweepRecord& r) { r.lambda = 0.3; },
      [](SweepRecord& r) { r.rounds = 7; },
      [](SweepRecord& r) { r.diameter = 4; },
      [](SweepRecord& r) { r.sep_distance = 3; },
      [](SweepRecord& r) { r.sep_min_size = 5; },
      [](SweepRecord& r) { r.states = 100; },
      [](SweepRecord& r) { r.group = 8; },
      [](SweepRecord& r) { r.budget = 0; },
      [](SweepRecord& r) { r.objective = 9.5; },
      [](SweepRecord& r) { r.restarts = 2; },
      [](SweepRecord& r) { r.accepted = 40; },
  };
  std::size_t fields = 0;
  for_each_result_field([&fields](std::string_view, const auto&) { ++fields; },
                        a);
  EXPECT_EQ(changes.size(), fields);
  for (std::size_t i = 0; i < changes.size(); ++i) {
    SweepRecord c = b;
    changes[i](c);
    EXPECT_FALSE(same_result(a, c)) << "field " << i;
  }
}

}  // namespace
}  // namespace sysgo::engine
