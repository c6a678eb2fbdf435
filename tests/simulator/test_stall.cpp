// The stall exit of the one round loop: run_periodic ends a run once a
// whole period in a row changed nothing, and every simulator entry still
// answers exactly what a plain loop with no exit answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "protocol/compiled.hpp"
#include "simulator/broadcast_sim.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/periodic.hpp"
#include "util/rng.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;
using protocol::SystolicSchedule;

constexpr int kLargestCap = 1 << 30;  // sysgo simulate's max-rounds limit

// ------------------------------------------------------------ step counts

TEST(StallExit, NeverGainingStepEndsAfterOnePeriod) {
  for (const int stored : {1, 2, 5, 17}) {
    int steps = 0;
    const int t = run_periodic(
        stored, /*periodic=*/true, kLargestCap,
        [&](int, int) {
          ++steps;
          return false;
        },
        [] { return false; });
    EXPECT_EQ(t, -1) << stored;
    EXPECT_EQ(steps, stored) << stored;
  }
}

TEST(StallExit, LastGainAtRoundKEndsOnePeriodLater) {
  for (const int stored : {1, 3, 7}) {
    // Gaining only at round k (k <= stored, so the idle stretch before it
    // is shorter than a period).
    for (int k = 1; k <= stored; ++k) {
      int steps = 0;
      const int t = run_periodic(
          stored, /*periodic=*/true, kLargestCap,
          [&](int, int i) {
            ++steps;
            return i == k;
          },
          [] { return false; });
      EXPECT_EQ(t, -1);
      EXPECT_EQ(steps, k + stored) << "stored=" << stored << " k=" << k;
    }
    // Gaining at every round through k, for k far past one period.
    for (const int k : {1, 10, 1000}) {
      int steps = 0;
      const int t = run_periodic(
          stored, /*periodic=*/true, kLargestCap,
          [&](int, int i) {
            ++steps;
            return i <= k;
          },
          [] { return false; });
      EXPECT_EQ(t, -1);
      EXPECT_EQ(steps, k + stored) << "stored=" << stored << " k=" << k;
    }
  }
}

TEST(StallExit, IdleRoundsShorterThanAPeriodDoNotEndTheRun) {
  // Gains every third round of a period of 3: never a whole idle period,
  // so the run reaches done() at round 30.
  int steps = 0;
  const int t = run_periodic(
      3, /*periodic=*/true, kLargestCap,
      [&](int r, int) {
        ++steps;
        return r == 2;
      },
      [&] { return steps == 30; });
  EXPECT_EQ(t, 30);
}

TEST(StallExit, StallingScheduleAtTheLargestCapEndsAtOnce) {
  // Two disjoint one-way links: after round 2 nothing can ever change, so
  // the run ends after rounds 3 and 4 instead of 2^30 rounds.
  SystolicSchedule s;
  s.n = 4;
  s.mode = Mode::kHalfDuplex;
  s.period = {{{{0, 1}}}, {{{2, 3}}}};
  const auto cs = CompiledSchedule::compile(s);
  EXPECT_EQ(gossip_time(cs, kLargestCap), -1);
  EXPECT_EQ(broadcast_time(cs, 0, kLargestCap), -1);
}

// ------------------------------------------- random schedules vs no exit

/// A random periodic schedule on 2..40 vertices: each round is a random
/// matching over one of four supports, and about a quarter of the rounds
/// are empty.  Supports 1 (two halves with no link between them) and 3 in
/// half duplex (a one-way path: the last vertex never sends) never
/// complete gossip.
SystolicSchedule random_schedule(util::Rng& rng, Mode mode) {
  SystolicSchedule s;
  s.n = rng.uniform_int(2, 40);
  s.mode = mode;
  const int n = s.n;
  const int support = rng.uniform_int(0, 3);
  std::vector<graph::Arc> pool;  // undirected support, as tail < head
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) {
      const bool same_half = (u < n / 2) == (v < n / 2);
      const bool ok = support == 0   ? true
                      : support == 1 ? same_half
                                     : v == u + 1 || (support == 2 &&
                                                      u == 0 && v == n - 1);
      if (ok) pool.push_back({u, v});
    }
  const int period = rng.uniform_int(1, 6);
  for (int r = 0; r < period; ++r) {
    protocol::Round round;
    if (rng.uniform_int(0, 3) > 0) {
      std::vector<char> busy(static_cast<std::size_t>(n), 0);
      for (std::size_t k = pool.size(); k > 1; --k)
        std::swap(pool[k - 1], pool[rng.uniform_index(k)]);
      for (const graph::Arc& e : pool) {
        if (busy[static_cast<std::size_t>(e.tail)] ||
            busy[static_cast<std::size_t>(e.head)] || rng.uniform01() < 0.3)
          continue;
        busy[static_cast<std::size_t>(e.tail)] = 1;
        busy[static_cast<std::size_t>(e.head)] = 1;
        if (mode == Mode::kFullDuplex) {
          round.arcs.push_back(e);
          round.arcs.push_back({e.head, e.tail});
        } else if (support == 3 || rng.uniform_int(0, 1) == 0) {
          round.arcs.push_back(e);
        } else {
          round.arcs.push_back({e.head, e.tail});
        }
      }
    }
    round.canonicalize();
    s.period.push_back(std::move(round));
  }
  return s;
}

/// First round after which every row of `rows` equals `full`, by a plain
/// loop with no stall exit (snapshot semantics, one 64-bit word per
/// vertex), or -1 when that takes more than `cap` rounds.
int reference_time(const SystolicSchedule& s, std::vector<std::uint64_t> rows,
                   std::uint64_t full, int cap) {
  const auto done = [&] {
    return std::all_of(rows.begin(), rows.end(),
                       [&](std::uint64_t w) { return w == full; });
  };
  if (done()) return 0;
  for (int i = 1; i <= cap; ++i) {
    const std::vector<std::uint64_t> before = rows;
    for (const graph::Arc& a : s.round_at(i).arcs)
      rows[static_cast<std::size_t>(a.head)] |=
          before[static_cast<std::size_t>(a.tail)];
    if (done()) return i;
  }
  return -1;
}

int reference_gossip_time(const SystolicSchedule& s, int cap) {
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(s.n));
  for (int v = 0; v < s.n; ++v)
    rows[static_cast<std::size_t>(v)] = std::uint64_t{1} << v;
  return reference_time(s, rows, (std::uint64_t{1} << s.n) - 1, cap);
}

/// Broadcast from src: row v is 1 once v knows src's item.
int reference_broadcast_time(const SystolicSchedule& s, int src, int cap) {
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(s.n), 0);
  rows[static_cast<std::size_t>(src)] = 1;
  return reference_time(s, rows, 1, cap);
}

TEST(StallExit, RandomSchedulesMatchAPlainLoopAtEveryCap) {
  util::Rng rng(21);
  constexpr int kDeepCap = 10000;
  int stalled = 0;
  int completed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Mode mode = trial % 2 == 0 ? Mode::kHalfDuplex : Mode::kFullDuplex;
    const SystolicSchedule s = random_schedule(rng, mode);
    const auto cs = CompiledSchedule::compile(s);
    const int p = s.period_length();
    // The plain loop's answer at cap c is its completion round t when
    // t <= c, else -1; run it once to the deepest cap.
    const int gossip_ref = reference_gossip_time(s, kDeepCap);
    (gossip_ref < 0 ? stalled : completed) += 1;
    const int src = rng.uniform_int(0, s.n - 1);
    const int bcast_ref = reference_broadcast_time(s, src, kDeepCap);
    const auto at = [](int t, int cap) { return t >= 0 && t <= cap ? t : -1; };
    std::vector<int> caps;
    for (int c = 1; c <= 3 * p; ++c) caps.push_back(c);
    caps.push_back(kDeepCap);
    for (const int cap : caps) {
      EXPECT_EQ(gossip_time(cs, cap), at(gossip_ref, cap))
          << "trial " << trial << " cap " << cap;
      EXPECT_EQ(broadcast_time(cs, src, cap), at(bcast_ref, cap))
          << "trial " << trial << " src " << src << " cap " << cap;
    }
  }
  // Both kinds of run occur, so both exits are exercised.
  EXPECT_GT(stalled, 30);
  EXPECT_GT(completed, 30);
}

}  // namespace
}  // namespace sysgo::simulator
