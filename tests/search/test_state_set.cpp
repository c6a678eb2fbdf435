#include "search/state_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.hpp"

namespace sysgo::search {
namespace {

State random_state(util::Rng& rng, int n = 12) {
  State s;
  const auto mask = static_cast<std::uint16_t>((1u << n) - 1u);
  for (int v = 0; v < n; ++v)
    s.rows[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(
        (rng.engine()() & mask) | (1u << v));
  return s;
}

TEST(StateSet, MatchesReferenceSetUnderChurn) {
  util::Rng rng(7);
  StateSet set;
  std::set<State> reference;
  std::vector<State> pool;
  for (int i = 0; i < 5000; ++i) pool.push_back(random_state(rng));
  for (int i = 0; i < 20000; ++i) {
    const State& s = pool[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<int>(pool.size()) - 1))];
    EXPECT_EQ(set.insert(s), reference.insert(s).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const State& s : reference) EXPECT_TRUE(set.contains(s));
  EXPECT_FALSE(set.contains(random_state(rng)));  // overwhelmingly likely new
}

TEST(StateSet, GrowsPastInitialCapacity) {
  util::Rng rng(11);
  StateSet set(16);
  for (int i = 0; i < 3000; ++i) set.insert(random_state(rng));
  EXPECT_GT(set.size(), 2900u);  // all distinct w.h.p.
}

TEST(StateSet, ClearEmptiesTheTable) {
  util::Rng rng(3);
  StateSet set;
  const State s = random_state(rng);
  EXPECT_TRUE(set.insert(s));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(s));
  EXPECT_TRUE(set.insert(s));
}

TEST(ShardedStateSet, AgreesWithFlatSet) {
  util::Rng rng(21);
  ShardedStateSet sharded;
  StateSet flat;
  for (int i = 0; i < 10000; ++i) {
    const State s = random_state(rng, 4);  // tiny n: plenty of duplicates
    EXPECT_EQ(sharded.insert(s), flat.insert(s));
  }
  EXPECT_EQ(sharded.size(), flat.size());
}

}  // namespace
}  // namespace sysgo::search
