// Differential suite for the SIMD row kernels and everything built on them:
//
//   * both round ops on raw rows vs an independent scalar reference at row
//     widths 1..512 bits (every tail-word shape, the one-word path below
//     65), random densities, all supported ISAs;
//   * the round ops through KnowledgeMatrix item windows vs a per-link
//     reference over random matchings with full and empty rows, and the
//     parallel apply_round vs the serial one;
//   * the 64-byte row-alignment guarantee of KnowledgeMatrix and its item
//     windows, n = 1..200;
//   * the reusable gossip arena vs per-call gossip_time over the
//     paper-figure corpus plus seeded random members;
//   * DraftEvaluator vs the one-shot compile-then-evaluate path, both
//     modes, feasible and capped runs;
//   * end-to-end per-kernel equality (ScopedKernel) — the in-process form
//     of the CI byte-identity matrix.
#include "simulator/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/knowledge.hpp"
#include "synth/draft.hpp"
#include "synth/objective.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace sysgo::simulator {
namespace {

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> ks;
  for (int k = 0; k < kKernelKindCount; ++k)
    if (kernel_supported(static_cast<KernelKind>(k)))
      ks.push_back(static_cast<KernelKind>(k));
  return ks;
}

// Independent scalar reference (deliberately re-implemented here, not a
// call into the scalar kernel, so the test cannot share a bug with it).
int ref_merge(std::vector<std::uint64_t>& dst,
              const std::vector<std::uint64_t>& src) {
  int added = 0;
  for (std::size_t w = 0; w < dst.size(); ++w) {
    added += std::popcount(src[w] & ~dst[w]);
    dst[w] |= src[w];
  }
  return added;
}

/// Random row of `bits` logical bits: density cycles through sparse
/// (AND of two draws), uniform, and dense (OR of two draws); bits past the
/// width are cleared so every tail-word shape is exercised.
std::vector<std::uint64_t> random_row(int bits, int density, util::Rng& rng) {
  std::uniform_int_distribution<std::uint64_t> dist;
  const std::size_t words = (static_cast<std::size_t>(bits) + 63) / 64;
  std::vector<std::uint64_t> row(words);
  for (auto& w : row) {
    w = dist(rng.engine());
    if (density == 0) w &= dist(rng.engine());
    if (density == 2) w |= dist(rng.engine());
  }
  if (bits % 64 != 0)
    row.back() &= (std::uint64_t{1} << (bits % 64)) - 1;
  return row;
}

TEST(Kernels, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernel_compiled(KernelKind::kScalar));
  EXPECT_TRUE(kernel_supported(KernelKind::kScalar));
  EXPECT_TRUE(kernel_supported(active_kernel()));
}

TEST(Kernels, NamesRoundTrip) {
  EXPECT_STREQ(kernel_name(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(kernel_name(KernelKind::kAvx2), "avx2");
  EXPECT_STREQ(kernel_name(KernelKind::kAvx512), "avx512");
}

TEST(Kernels, UnsupportedKernelTableThrows) {
  for (int k = 0; k < kKernelKindCount; ++k) {
    const auto kind = static_cast<KernelKind>(k);
    if (!kernel_supported(kind)) {
      EXPECT_THROW(static_cast<void>(kernel_table(kind)), std::runtime_error);
    }
  }
}

/// Two raw rows as a round op sees them: unpadded (stride = words), so
/// the vector kernels take their tail paths, and counts from popcounts.
struct TwoRows {
  std::vector<std::uint64_t> bits;
  int counts[2] = {0, 0};
  int full_rows = 0;

  TwoRows(const std::vector<std::uint64_t>& r0,
          const std::vector<std::uint64_t>& r1, int items) {
    bits = r0;
    bits.insert(bits.end(), r1.begin(), r1.end());
    for (int v = 0; v < 2; ++v) {
      counts[v] = 0;
      for (std::size_t w = 0; w < r0.size(); ++w)
        counts[v] += std::popcount(bits[v * r0.size() + w]);
      full_rows += counts[v] == items;
    }
  }
  RowBlock block(std::size_t words, int items) {
    return {bits.data(), words, words, counts, items, &full_rows};
  }
  std::vector<std::uint64_t> row(int v, std::size_t words) const {
    const auto begin = bits.begin() + static_cast<std::ptrdiff_t>(v * words);
    return {begin, begin + static_cast<std::ptrdiff_t>(words)};
  }
};

int popcount_row(const std::vector<std::uint64_t>& row) {
  int c = 0;
  for (const std::uint64_t w : row) c += std::popcount(w);
  return c;
}

// The heart of the suite: every width 1..512 bits x three densities, each
// supported kernel against the reference, both round ops on a one-link
// round (row 1 into row 0, then the exchange of rows 0 and 1).
TEST(Kernels, DifferentialAllWidthsAllKernels) {
  const auto kernels_to_test = supported_kernels();
  ASSERT_FALSE(kernels_to_test.empty());
  util::Rng rng(0x5eedULL ^ 0x9e3779b97f4a7c15ULL);
  const graph::Arc arc{1, 0};
  const graph::Arc pair{0, 1};
  for (int bits = 1; bits <= 512; ++bits) {
    const std::size_t words = (static_cast<std::size_t>(bits) + 63) / 64;
    const int density = bits % 3;
    const auto dst0 = random_row(bits, density, rng);
    const auto src = random_row(bits, 2 - density, rng);
    // Reference results.
    auto ref_dst = dst0;
    const int ref_added = ref_merge(ref_dst, src);
    auto ref_a = dst0;
    auto ref_b = src;
    const auto a0 = ref_a;
    const int ref_da = ref_merge(ref_a, ref_b);
    const int ref_db = ref_merge(ref_b, a0);
    const auto full_count = [&](const std::vector<std::uint64_t>& r0,
                                const std::vector<std::uint64_t>& r1) {
      return (popcount_row(r0) == bits) + (popcount_row(r1) == bits);
    };

    for (const KernelKind kind : kernels_to_test) {
      const RowKernels& k = kernel_table(kind);
      const std::string what =
          std::string(kernel_name(kind)) + " bits=" + std::to_string(bits);
      TwoRows one(dst0, src, bits);
      EXPECT_EQ(k.merge_arcs(one.block(words, bits), {&arc, 1}), ref_added)
          << what;
      EXPECT_EQ(one.row(0, words), ref_dst) << what;
      EXPECT_EQ(one.row(1, words), src) << what;
      EXPECT_EQ(one.counts[0], popcount_row(ref_dst)) << what;
      EXPECT_EQ(one.full_rows, full_count(ref_dst, src)) << what;

      TwoRows both(dst0, src, bits);
      EXPECT_EQ(k.merge_pairs(both.block(words, bits), {&pair, 1}),
                ref_da + ref_db)
          << what;
      EXPECT_EQ(both.row(0, words), ref_a) << what;
      EXPECT_EQ(both.row(1, words), ref_b) << what;
      EXPECT_EQ(both.counts[0], popcount_row(ref_a)) << what;
      EXPECT_EQ(both.counts[1], popcount_row(ref_b)) << what;
      EXPECT_EQ(both.full_rows, full_count(ref_a, ref_b)) << what;
    }
  }
}

// Merging a row into itself is a no-op with gain 0, in both round ops and
// on both the one-word and the vector paths.
TEST(Kernels, SelfMergeGainsNothing) {
  util::Rng rng(42);
  const graph::Arc self{0, 0};
  for (const KernelKind kind : supported_kernels()) {
    const RowKernels& k = kernel_table(kind);
    for (const int bits : {40, 300}) {
      const std::size_t words = (static_cast<std::size_t>(bits) + 63) / 64;
      const auto before = random_row(bits, 1, rng);
      TwoRows rows(before, before, bits);
      EXPECT_EQ(k.merge_arcs(rows.block(words, bits), {&self, 1}), 0)
          << kernel_name(kind) << " bits=" << bits;
      EXPECT_EQ(k.merge_pairs(rows.block(words, bits), {&self, 1}), 0)
          << kernel_name(kind) << " bits=" << bits;
      EXPECT_EQ(rows.row(0, words), before);
      EXPECT_EQ(rows.counts[0], popcount_row(before));
    }
  }
}

/// A random matching on n vertices with about half of them matched: arcs
/// in random directions, or tail < head pairs for full-duplex rounds.
std::vector<graph::Arc> random_links(int n, bool full, util::Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<graph::Arc> links;
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    if (rng.engine()() % 4 == 0) continue;  // leave this pair idle
    int a = order[i];
    int b = order[i + 1];
    if (full ? a > b : rng.engine()() % 2 == 0) std::swap(a, b);
    links.push_back({a, b});
  }
  return links;
}

// The round ops through KnowledgeMatrix item windows against a per-link
// reference over plain word vectors: windows of 1 to 513 items (one word,
// word boundaries, one and two cache lines, a tail word past them), both
// modes, rows seeded full, empty or random, random matchings until every
// row is full.  Rows, counts, all_full() and the returned gain must agree
// after every round.
TEST(Kernels, RoundOpsMatchAPerLinkReference) {
  util::Rng rng(0x40d5ULL);
  for (const KernelKind kind : supported_kernels()) {
    const ScopedKernel scoped(kind);
    for (const int width : {1, 2, 63, 64, 65, 128, 511, 512, 513}) {
      for (const bool full : {false, true}) {
        const std::string what = std::string(kernel_name(kind)) +
                                  " width=" + std::to_string(width) +
                                  (full ? " full" : " half");
        // Rows 0..19 and the last 20 start empty: their items lie outside
        // the window.
        const int n = width + 40;
        const int first = 20;
        KnowledgeMatrix k(n, first, width);
        for (int v = 0; v < n; ++v) {
          const auto seed = rng.engine()() % 4;
          for (int i = 0; i < width && seed < 2; ++i)
            if (seed == 0 || rng.engine()() % 8 == 0) k.learn(v, first + i);
        }
        std::vector<std::vector<std::uint64_t>> ref;
        for (int v = 0; v < n; ++v)
          ref.emplace_back(k.row(v).begin(), k.row(v).end());
        for (int round = 0; round < 60 && !k.all_full(); ++round) {
          const auto links = random_links(n, full, rng);
          std::int64_t want = 0;
          for (const graph::Arc& l : links) {
            auto& a = ref[static_cast<std::size_t>(l.tail)];
            auto& b = ref[static_cast<std::size_t>(l.head)];
            if (full) {
              const auto a0 = a;
              want += ref_merge(a, b);
              want += ref_merge(b, a0);
            } else {
              want += ref_merge(b, a);
            }
          }
          ASSERT_EQ(full ? k.merge_pairs(links) : k.merge_arcs(links), want)
              << what << " round " << round;
          bool all_full = true;
          for (int v = 0; v < n; ++v) {
            const auto& r = ref[static_cast<std::size_t>(v)];
            ASSERT_EQ(std::vector<std::uint64_t>(k.row(v).begin(),
                                                 k.row(v).end()),
                      r)
                << what << " round " << round << " v=" << v;
            ASSERT_EQ(k.count(v), popcount_row(r)) << what << " v=" << v;
            all_full = all_full && popcount_row(r) == width;
          }
          ASSERT_EQ(k.all_full(), all_full) << what << " round " << round;
        }
        EXPECT_TRUE(k.all_full()) << what;
      }
    }
  }
}

// apply_round splits a round of more than 512 links into blocks that merge
// concurrently, each adding its filled rows to the shared tally once: the
// parallel run must match the serial one round for round (n = 2,048, a
// 64-item window, so the one-word path).
TEST(Kernels, ParallelRoundMatchesSerial) {
  constexpr int kN = 2048;
  util::Rng rng(0x2048ULL);
  for (const auto mode : {protocol::Mode::kHalfDuplex,
                          protocol::Mode::kFullDuplex}) {
    const bool full = mode == protocol::Mode::kFullDuplex;
    protocol::SystolicSchedule p{kN, mode, {}};
    for (int r = 0; r < 80; ++r) {
      protocol::Round round;
      for (const graph::Arc& l : random_links(kN, full, rng)) {
        round.arcs.push_back(l);
        if (full) round.arcs.push_back({l.head, l.tail});
      }
      p.period.push_back(std::move(round));
    }
    const auto cs = protocol::CompiledSchedule::compile(p);
    KnowledgeMatrix serial(kN, 1000, 64);
    KnowledgeMatrix parallel(kN, 1000, 64);
    for (int r = 0; r < cs.period_length(); ++r) {
      ASSERT_GT(cs.round_pairs(r).size(), 512u);
      ASSERT_EQ(apply_round(parallel, cs, r, /*parallel=*/true),
                apply_round(serial, cs, r))
          << "round " << r;
      for (int v = 0; v < kN; ++v)
        ASSERT_EQ(parallel.row(v)[0], serial.row(v)[0]) << "v=" << v;
      for (int v = 0; v < kN; ++v)
        ASSERT_EQ(parallel.count(v), serial.count(v)) << "v=" << v;
      ASSERT_EQ(parallel.all_full(), serial.all_full()) << "round " << r;
    }
    EXPECT_TRUE(serial.all_full()) << (full ? "full" : "half");
  }
}

TEST(Knowledge, RowsAre64ByteAlignedForAllSmallN) {
  for (int n = 1; n <= 200; ++n) {
    // The whole matrix and an item window of the last two thirds.
    for (const KnowledgeMatrix& k :
         {KnowledgeMatrix(n), KnowledgeMatrix(n, n / 3, n - n / 3)}) {
      for (int v = 0; v < n; ++v) {
        const auto addr = reinterpret_cast<std::uintptr_t>(k.row(v).data());
        ASSERT_EQ(addr % 64, 0u) << "n=" << n << " v=" << v;
        ASSERT_EQ(k.row(v).size(), k.words()) << "n=" << n;
      }
    }
  }
}

TEST(Knowledge, ResetRestoresIdentityState) {
  KnowledgeMatrix k(70);
  const graph::Arc pair{0, 69};
  k.merge_pairs({&pair, 1});
  k.learn(3, 50);
  k.reset();
  EXPECT_FALSE(k.all_full());
  for (int v = 0; v < 70; ++v) {
    EXPECT_EQ(k.count(v), 1);
    for (int i = 0; i < 70; ++i) EXPECT_EQ(k.knows(v, i), v == i);
  }
}

// ---------------------------------------------------------------- corpora

struct CorpusMember {
  topology::Family family;
  int d;
  int D;
  std::uint64_t seed;  // random families only (0 = default member)
};

/// The fig5/fig6 families at small D plus seeded random members — compact
/// enough to run per kernel, wide enough to cross word boundaries (de
/// Bruijn / Kautz at D = 5..6 pass n = 64).
std::vector<CorpusMember> corpus() {
  using topology::Family;
  return {
      {Family::kButterfly, 2, 3, 0},
      {Family::kWrappedButterflyDirected, 2, 3, 0},
      {Family::kWrappedButterfly, 2, 3, 0},
      {Family::kDeBruijnDirected, 2, 6, 0},
      {Family::kDeBruijn, 2, 6, 0},
      {Family::kKautzDirected, 2, 5, 0},
      {Family::kKautz, 2, 5, 0},
      {Family::kCycle, 2, 9, 0},
      {Family::kHypercube, 2, 4, 0},
      {Family::kRandomRegular, 3, 24, 0xfeedULL},
      {Family::kRandomGnp, 3, 20, 0xbeefULL},
  };
}

protocol::CompiledSchedule member_schedule(const CorpusMember& m,
                                           protocol::Mode mode) {
  const graph::Digraph g =
      m.seed != 0 ? topology::make_family(m.family, m.d, m.D, m.seed)
                  : topology::make_family(m.family, m.d, m.D);
  // The coloring may activate reversed arcs on non-symmetric digraphs, so
  // compile without a membership graph (matching the builder's contract).
  return protocol::CompiledSchedule::compile(
      protocol::edge_coloring_schedule(g, mode));
}

TEST(Batch, GossipArenaMatchesSerialOverCorpus) {
  constexpr int kMax = 512;
  // One arena across the whole corpus, so mixed-n reacquisition is covered.
  GossipArena arena;
  for (const CorpusMember& m : corpus()) {
    const auto cs = member_schedule(m, protocol::Mode::kHalfDuplex);
    EXPECT_EQ(gossip_time(cs, kMax, {}, arena), gossip_time(cs, kMax))
        << topology::family_name(m.family, m.d) << " D=" << m.D;
  }
}

// ------------------------------------------------- synth evaluation paths

synth::ObjectiveOptions objective_options(int max_rounds = 512) {
  synth::ObjectiveOptions o;
  o.max_rounds = max_rounds;
  return o;
}

void expect_objectives_equal(const synth::Objective& a,
                             const synth::Objective& b,
                             const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.period, b.period) << what;
  EXPECT_EQ(a.links, b.links) << what;
  EXPECT_EQ(a.coverage, b.coverage) << what;
}

// DraftEvaluator must reproduce the compile-then-evaluate objective for
// arbitrary structurally-valid schedules: random matchings over random
// members, both modes, plus short round caps so the infeasible/coverage
// branch is hit.
TEST(Synth, DraftEvaluatorMatchesCompiledEvaluate) {
  util::Rng rng(0x5997ULL);
  synth::DraftEvaluator de;
  for (const auto mode : {protocol::Mode::kHalfDuplex,
                          protocol::Mode::kFullDuplex}) {
    for (int trial = 0; trial < 30; ++trial) {
      const graph::Digraph g = topology::make_family(
          topology::Family::kRandomRegular, 3, 10 + 2 * (trial % 4),
          0x1000ULL + trial);  // d = 3 needs even n
      const auto sched = protocol::random_systolic_schedule(
          g, 1 + trial % 5, mode, rng);
      const auto draft = synth::ScheduleDraft::from_schedule(sched);
      const auto cs =
          protocol::CompiledSchedule::compile(draft.to_schedule(), &g);
      for (const int cap : {3, 512}) {
        const auto opts = objective_options(cap);
        expect_objectives_equal(de.evaluate(draft, opts),
                                synth::evaluate(cs, opts),
                                "trial=" + std::to_string(trial) +
                                    " cap=" + std::to_string(cap));
      }
    }
  }
}

// -------------------------------------------------- per-kernel end-to-end

// Every supported kernel must produce the same gossip times and objectives
// as the scalar one on whole runs — the in-process version of the CI matrix's
// byte-identity gate.
TEST(Kernels, EndToEndResultsIdenticalAcrossKernels) {
  constexpr int kMax = 512;
  struct Baseline {
    int gossip;
    synth::Objective objective;
  };
  std::vector<protocol::CompiledSchedule> compiled;
  for (const CorpusMember& m : corpus())
    compiled.push_back(member_schedule(m, protocol::Mode::kHalfDuplex));
  const auto opts = objective_options();

  std::vector<Baseline> base;
  {
    const ScopedKernel scoped(KernelKind::kScalar);
    for (const auto& cs : compiled)
      base.push_back({gossip_time(cs, kMax), synth::evaluate(cs, opts)});
  }
  for (const KernelKind kind : supported_kernels()) {
    const ScopedKernel scoped(kind);
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      EXPECT_EQ(gossip_time(compiled[i], kMax), base[i].gossip)
          << kernel_name(kind) << " member " << i;
      expect_objectives_equal(
          synth::evaluate(compiled[i], opts), base[i].objective,
          std::string(kernel_name(kind)) + " member " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace sysgo::simulator
