// Differential suite for the SIMD row kernels and everything built on them:
//
//   * raw kernels vs an independent scalar reference at row widths 1..512
//     bits (every tail-word shape), random densities, all supported ISAs;
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

#include <bit>
#include <cstdint>
#include <random>
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

// The heart of the suite: every width 1..512 bits x three densities, each
// supported kernel against the reference, both operations.
TEST(Kernels, DifferentialAllWidthsAllKernels) {
  const auto kernels_to_test = supported_kernels();
  ASSERT_FALSE(kernels_to_test.empty());
  util::Rng rng(0x5eedULL ^ 0x9e3779b97f4a7c15ULL);
  for (int bits = 1; bits <= 512; ++bits) {
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

    for (const KernelKind kind : kernels_to_test) {
      const RowKernels& k = kernel_table(kind);
      auto dst = dst0;
      EXPECT_EQ(k.merge_delta(dst.data(), src.data(), dst.size()), ref_added)
          << kernel_name(kind) << " bits=" << bits;
      EXPECT_EQ(dst, ref_dst) << kernel_name(kind) << " bits=" << bits;

      auto a = dst0;
      auto b = src;
      int deltas[2] = {-1, -1};
      k.merge_both_delta(a.data(), b.data(), a.size(), deltas);
      EXPECT_EQ(deltas[0], ref_da) << kernel_name(kind) << " bits=" << bits;
      EXPECT_EQ(deltas[1], ref_db) << kernel_name(kind) << " bits=" << bits;
      EXPECT_EQ(a, ref_a) << kernel_name(kind) << " bits=" << bits;
      EXPECT_EQ(b, ref_b) << kernel_name(kind) << " bits=" << bits;
    }
  }
}

// Self-merge must be a no-op with delta 0 (merge_into(v, v) semantics).
TEST(Kernels, SelfMergeGainsNothing) {
  util::Rng rng(42);
  for (const KernelKind kind : supported_kernels()) {
    const RowKernels& k = kernel_table(kind);
    auto row = random_row(300, 1, rng);
    const auto before = row;
    EXPECT_EQ(k.merge_delta(row.data(), row.data(), row.size()), 0);
    EXPECT_EQ(row, before);
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
  k.merge_both(0, 69);
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
