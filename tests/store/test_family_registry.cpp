// The family registry's flags against the code they describe: for every
// family, the separator-analysis flag must match what the Lemma 3.1 entry
// points accept, and the store must fold the seed into a key exactly when
// the member graph (or the synthesizer) depends on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/separator_bound.hpp"
#include "engine/scenario.hpp"
#include "separator/separator.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"

namespace sysgo::store {
namespace {

using engine::Task;
using topology::Family;

/// A small buildable member of f: the first candidate (d, D) whose closed-
/// form order is at most 256.
std::pair<int, int> small_member(Family f) {
  for (const auto& [d, D] : {std::pair{3, 8}, std::pair{2, 4}}) {
    try {
      if (topology::family_order(f, d, D) <= 256) return {d, D};
    } catch (const std::invalid_argument&) {
    }
  }
  throw std::logic_error("no small member of " + topology::family_token(f));
}

bool same_graph(const graph::Digraph& a, const graph::Digraph& b) {
  return a.vertex_count() == b.vertex_count() &&
         std::ranges::equal(a.arcs(), b.arcs());
}

/// Whether some seed other than the default builds a different member.
bool member_changes_with_seed(Family f, int d, int D) {
  const auto base = topology::make_family(f, d, D);
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    if (!same_graph(base, topology::make_family(f, d, D, seed))) return true;
  return false;
}

TEST(FamilyRegistry, FlagsMatchTheCodeTheyDescribe) {
  for (std::size_t i = 0; i < topology::kFamilyCount; ++i) {
    const auto f = static_cast<Family>(i);
    const std::string token = topology::family_token(f);
    SCOPED_TRACE(token);

    // Separator analysis: both Lemma 3.1 entry points accept the family
    // exactly when the flag says so.
    const bool analysis = topology::family_has_separator_analysis(f);
    bool params_ok = true;
    bool diameter_ok = true;
    try {
      (void)separator::lemma31_params(f, 2);
    } catch (const std::invalid_argument&) {
      params_ok = false;
    }
    try {
      (void)core::diameter_coefficient(f, 2);
    } catch (const std::invalid_argument&) {
      diameter_ok = false;
    }
    EXPECT_EQ(params_ok, analysis);
    EXPECT_EQ(diameter_ok, analysis);

    // Seeding: the flag is set exactly when the member follows the seed.
    const auto [d, D] = small_member(f);
    const bool changes = member_changes_with_seed(f, d, D);
    EXPECT_EQ(topology::family_is_seeded(f), changes);

    // Store keys carry the seed exactly for seeded members and synth jobs.
    engine::ExecutionLimits limits;
    limits.seed = 7;
    for (std::size_t t = 0; t < engine::kTaskCount; ++t) {
      const auto task = static_cast<Task>(t);
      const engine::SweepJob job{{f, d, D, protocol::Mode::kHalfDuplex}, task, 0};
      const std::string key = make_store_key(job, limits).text;
      EXPECT_EQ(key.find(" seed=7") != std::string::npos,
                changes || task == Task::kSynthesize)
          << key;
    }
  }
}

}  // namespace
}  // namespace sysgo::store
