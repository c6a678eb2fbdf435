// Item windows: a KnowledgeMatrix over all n rows but only a range of item
// columns.  A merge ORs whole rows, so every column evolves on its own and
// a run split into windows must reproduce the whole-matrix run exactly:
//
//   * window start state, fullness and the empty-source merge skip;
//   * the window width rule (kItemWindowBytes);
//   * max of per-window completion rounds == whole-matrix completion, and
//     -1 under a cap one round short, at small n with windows of 1-3 cache
//     lines built directly;
//   * gossip_time at real multi-window sizes == a one-window reference,
//     under every supported kernel, parallel merges on and off;
//   * one arena reused across members of different n == fresh arenas,
//     including a padded member right after a wider one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/kernels.hpp"
#include "simulator/knowledge.hpp"
#include "simulator/periodic.hpp"
#include "topology/topology.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;
using topology::Family;

constexpr int kLineItems = 512;  // items per cache line of a row

struct Member {
  Family family;
  int d;
  int D;
  std::uint64_t seed;  // random families only (0 = deterministic member)
};

CompiledSchedule member_schedule(const Member& m, Mode mode) {
  const graph::Digraph g =
      m.seed != 0 ? topology::make_family(m.family, m.d, m.D, m.seed)
                  : topology::make_family(m.family, m.d, m.D);
  return CompiledSchedule::compile(protocol::edge_coloring_schedule(g, mode),
                                   g.is_symmetric() ? &g : nullptr);
}

/// member_schedule with vertex v relabelled n - 1 - v.  In bf(2,10) the
/// slowest items to spread are the last 1,024 labels — exactly the last
/// window — so reversing the labels makes the last window finish early.
CompiledSchedule reversed_member_schedule(const Member& m, Mode mode) {
  auto sched =
      protocol::edge_coloring_schedule(topology::make_family(m.family, m.d, m.D), mode);
  const int n = sched.n;
  for (protocol::Round& round : sched.period) {
    for (graph::Arc& a : round.arcs) a = {n - 1 - a.tail, n - 1 - a.head};
    round.canonicalize();
  }
  return CompiledSchedule::compile(sched);
}

std::string member_name(const Member& m, Mode mode) {
  return topology::family_name(m.family, m.d) + " D=" + std::to_string(m.D) +
         (mode == Mode::kFullDuplex ? " full" : " half");
}

/// Run cs on `know` through the one round loop, as gossip_time does for
/// each of its windows.
int run(KnowledgeMatrix& know, const CompiledSchedule& cs, int max_rounds,
        bool parallel = false) {
  return run_periodic(
      cs.period_length(), max_rounds,
      [&](int r, int) { return apply_round(know, cs, r, parallel); },
      [&] { return know.all_full(); });
}

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> ks;
  for (int k = 0; k < kKernelKindCount; ++k)
    if (kernel_supported(static_cast<KernelKind>(k)))
      ks.push_back(static_cast<KernelKind>(k));
  return ks;
}

TEST(ItemWindows, StartStateFullnessAndEmptySourceSkip) {
  KnowledgeMatrix w(10, 4, 3);  // items 4, 5, 6
  EXPECT_EQ(w.size(), 10);
  EXPECT_EQ(w.first_item(), 4);
  EXPECT_EQ(w.item_count(), 3);
  EXPECT_EQ(w.words(), 1u);
  for (int v = 0; v < 10; ++v) {
    const bool inside = v >= 4 && v < 7;
    EXPECT_EQ(w.count(v), inside ? 1 : 0) << v;
    if (inside) {
      EXPECT_TRUE(w.knows(v, v));
    }
  }
  EXPECT_FALSE(w.all_full());

  // Row 0 is empty: exchanging with it only flows towards it.
  const std::vector<graph::Arc> pair = {{0, 4}};
  w.merge_pairs(pair);
  EXPECT_TRUE(w.knows(0, 4));
  EXPECT_EQ(w.count(0), 1);
  EXPECT_EQ(w.count(4), 1);
  // An empty tail leaves its head alone.
  const std::vector<graph::Arc> arc = {{1, 5}};
  w.merge_arcs(arc);
  EXPECT_EQ(w.count(5), 1);

  w.learn(0, 5);
  w.learn(0, 6);
  EXPECT_TRUE(w.row_full(0));  // knows the whole window, not all n items

  w.reset();
  EXPECT_EQ(w.count(0), 0);
  EXPECT_EQ(w.count(5), 1);

  // Re-shaping to the whole matrix restores the identity start state.
  w.assign(10, 0, 10);
  for (int v = 0; v < 10; ++v) {
    EXPECT_EQ(w.count(v), 1);
    EXPECT_TRUE(w.knows(v, v));
  }

  EXPECT_THROW(KnowledgeMatrix(10, 8, 3), std::invalid_argument);
  EXPECT_THROW(KnowledgeMatrix(10, -1, 2), std::invalid_argument);
  EXPECT_THROW(KnowledgeMatrix(10, 0, 11), std::invalid_argument);
  EXPECT_THROW(KnowledgeMatrix(10, 0, -1), std::invalid_argument);
}

TEST(ItemWindows, WidthFollowsTheByteBudget) {
  // Up to 4 MiB the whole matrix is one window.
  for (const int n : {1, 63, 64, 512, 4096, 5632})
    EXPECT_EQ(item_window_width(n), n) << n;
  EXPECT_EQ(item_window_width(5633), 5632);
  EXPECT_EQ(item_window_width(10240), 3072);  // wbf(2,10): 4 windows
  EXPECT_EQ(item_window_width(11264), 2560);  // bf(2,10): 5 windows
  EXPECT_EQ(item_window_width(22528), 1024);  // wbf(2,11): 22 windows
  EXPECT_EQ(item_window_width(24576), 1024);  // bf(2,11): 24 windows
  EXPECT_EQ(item_window_width(65536), 512);
  EXPECT_EQ(item_window_width(100000), 512);  // one cache line minimum
  for (int n = 5633; n <= 70000; n += 997) {
    const int width = item_window_width(n);
    ASSERT_EQ(width % kLineItems, 0) << n;
    const std::size_t bytes = static_cast<std::size_t>(n) * (width / 8);
    if (width > kLineItems) {
      EXPECT_LE(bytes, kItemWindowBytes) << n;
    }
    // One more cache line would break the budget.
    EXPECT_GT(bytes + static_cast<std::size_t>(n) * 64, kItemWindowBytes) << n;
  }
}

TEST(ItemWindows, MaxOfWindowRoundsEqualsWholeMatrixRun) {
  constexpr int kCap = 4096;
  const std::vector<Member> members = {
      {Family::kButterfly, 2, 8, 0},           // n = 2304
      {Family::kWrappedButterfly, 2, 8, 0},    // n = 2048
      {Family::kKautz, 2, 11, 0},              // n = 3072
      {Family::kDeBruijn, 2, 11, 0},           // n = 2048
      {Family::kRandomRegular, 3, 1100, 0xfeedULL},
      {Family::kRandomGnp, 10, 700, 0xbeefULL},
  };
  for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex})
    for (const Member& m : members) {
      const CompiledSchedule cs = member_schedule(m, mode);
      const int n = cs.n();
      const std::string name = member_name(m, mode);
      KnowledgeMatrix whole(n);
      const int t = run(whole, cs, kCap);
      ASSERT_GT(t, 1) << name;
      EXPECT_EQ(gossip_time(cs, kCap), t) << name;
      EXPECT_EQ(gossip_time(cs, t - 1), -1) << name;

      // The whole matrix one round short of completion.
      KnowledgeMatrix short_whole(n);
      ASSERT_EQ(run(short_whole, cs, t - 1), -1) << name;

      for (int lines = 1; lines <= 3; ++lines) {
        const int width = lines * kLineItems;
        if (lines == 1) {
          ASSERT_LT(width, n) << name;  // two windows or more
        }
        int worst = 0;
        bool missed = false;
        std::vector<int> counts(static_cast<std::size_t>(n), 0);
        for (int first = 0; first < n; first += width) {
          const int count = std::min(width, n - first);
          KnowledgeMatrix window(n, first, count);
          const int tw = run(window, cs, kCap);
          ASSERT_GE(tw, 0) << name;
          worst = std::max(worst, tw);

          // Under the short cap each window holds exactly its columns of
          // the whole matrix.
          KnowledgeMatrix short_window(n, first, count);
          missed |= run(short_window, cs, t - 1) < 0;
          for (int v = 0; v < n; ++v) {
            counts[static_cast<std::size_t>(v)] += short_window.count(v);
            for (int i = first + v % 7; i < first + count; i += 7)
              ASSERT_EQ(short_window.knows(v, i), short_whole.knows(v, i))
                  << name << " v=" << v << " item=" << i;
          }
        }
        EXPECT_EQ(worst, t) << name << " lines=" << lines;
        EXPECT_TRUE(missed) << name << " lines=" << lines;
        for (int v = 0; v < n; ++v)
          ASSERT_EQ(counts[static_cast<std::size_t>(v)], short_whole.count(v))
              << name << " v=" << v;
      }
    }
}

TEST(ItemWindows, GossipTimeMatchesOneWindowAtMultiWindowSizes) {
  constexpr int kCap = 4096;
  struct Case {
    Member member;
    bool reversed;
    int windows;
  };
  const Case cases[] = {
      {{Family::kButterfly, 2, 10, 0}, false, 5},  // n = 11,264, last partial
      {{Family::kButterfly, 2, 10, 0}, true, 5},
      {{Family::kWrappedButterfly, 2, 10, 0}, false, 4},  // n = 10,240
  };
  for (const Case& c : cases)
    for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      const CompiledSchedule cs = c.reversed
                                      ? reversed_member_schedule(c.member, mode)
                                      : member_schedule(c.member, mode);
      const int n = cs.n();
      const std::string name =
          member_name(c.member, mode) + (c.reversed ? " reversed" : "");
      const int width = item_window_width(n);
      EXPECT_EQ((n + width - 1) / width, c.windows) << name;
      KnowledgeMatrix whole(n);  // the one-window reference
      const int t = run(whole, cs, kCap);
      ASSERT_GT(t, 0) << name;
      if (c.reversed) {
        // Not vacuous: the answer is not the last window's round.
        const int last = (c.windows - 1) * width;
        KnowledgeMatrix last_window(n, last, n - last);
        EXPECT_LT(run(last_window, cs, kCap), t) << name;
      }
      for (const KernelKind k : supported_kernels()) {
        const ScopedKernel scoped(k);
        for (const bool parallel : {false, true}) {
          GossipOptions opts;
          opts.parallel = parallel;
          EXPECT_EQ(gossip_time(cs, kCap, opts), t)
              << name << " kernel=" << kernel_name(k)
              << " parallel=" << parallel;
        }
      }
      EXPECT_EQ(gossip_time(cs, t - 1), -1) << name;
    }
}

TEST(ItemWindows, ArenaReusedAcrossSizesMatchesFreshArenas) {
  constexpr int kCap = 4096;
  // Sizes alternate between one window and several, so the shared arena
  // grows, shrinks and re-shapes between members.  bf(2,8)'s rows are
  // padded (36 words in a 40-word stride) and follow bf(2,10)'s 176-word
  // rows, whose diagonal bits fall in about 50 of bf(2,8)'s padding words:
  // a reset that left the padding stale and a merge that read it would
  // count bits no row gained.
  const std::vector<Member> members = {
      {Family::kDeBruijn, 2, 4, 0},            // n = 16
      {Family::kButterfly, 2, 10, 0},          // n = 11,264, 5 windows
      {Family::kButterfly, 2, 8, 0},           // n = 2,304, 36 of 40 words
      {Family::kKautz, 2, 5, 0},               // n = 48
      {Family::kWrappedButterfly, 2, 10, 0},   // n = 10,240, 4 windows
      {Family::kRandomRegular, 3, 24, 0xfeedULL},
      {Family::kButterfly, 2, 8, 0},           // n = 2,304
  };
  GossipArena shared;
  for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex})
    for (const Member& m : members) {
      const CompiledSchedule cs = member_schedule(m, mode);
      GossipArena fresh;
      const int want = gossip_time(cs, kCap, {}, fresh);
      EXPECT_GT(want, 0) << member_name(m, mode);
      EXPECT_EQ(gossip_time(cs, kCap, {}, shared), want)
          << member_name(m, mode);
      // A whole-matrix acquisition in between starts from the identity.
      const KnowledgeMatrix& know = shared.acquire(cs.n());
      EXPECT_EQ(know.item_count(), cs.n());
      for (int v = 0; v < cs.n(); v += 97) {
        EXPECT_EQ(know.count(v), 1);
        EXPECT_TRUE(know.knows(v, v));
      }
    }
}

}  // namespace
}  // namespace sysgo::simulator
