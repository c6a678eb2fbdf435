// Tightness of the reproduced bounds on known-optimal instances.
//
// * Knödel graphs achieve full-duplex gossip in exactly log2(n) rounds for
//   n a power of two — matching the paper's non-systolic full-duplex
//   coefficient e(∞) = 1 exactly (the bound is tight, as [5] proves in
//   general).
// * Hypercube dimension-order gossip achieves the same optimum.
// * The half-duplex 1.4404·log2(n) coefficient is approached by complete
//   graphs (exact small values from the exhaustive solver).
#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "protocol/builders.hpp"
#include "protocol/knodel_protocols.hpp"
#include "search/solver.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/knodel.hpp"
#include "util/rng.hpp"

namespace sysgo {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(Tightness, KnodelAchievesTheFullDuplexBoundExactly) {
  // e(∞, full) = 1: any full-duplex protocol needs log2(n) − O(log log n)
  // rounds; Knödel graphs deliver exactly log2(n).
  EXPECT_NEAR(core::e_general(core::kUnboundedPeriod, core::Duplex::kFull), 1.0,
              1e-9);
  for (int n : {16, 32, 64, 128}) {
    const int delta = topology::knodel_max_delta(n);
    const auto cs = CompiledSchedule::compile(
        protocol::knodel_schedule(delta, n, Mode::kFullDuplex));
    const int measured = simulator::gossip_time(cs, 4 * delta);
    EXPECT_EQ(measured, static_cast<int>(std::log2(n))) << "n=" << n;
  }
}

TEST(Tightness, KnodelScheduleIsPeriodLogNSystolic) {
  // The optimal schedule is Δ-systolic with Δ = log2 n; the general
  // systolic coefficient e(Δ, full) stays below 1.2 for Δ >= 4, consistent
  // with the measured log2(n) rounds.
  const int n = 64;
  const int delta = topology::knodel_max_delta(n);
  const double coeff = core::e_general(delta, core::Duplex::kFull);
  const int measured = simulator::gossip_time(
      CompiledSchedule::compile(protocol::knodel_schedule(delta, n, Mode::kFullDuplex)),
      4 * delta);
  EXPECT_LE(coeff * std::log2(n) - 2 * std::log2(std::log2(n)),
            static_cast<double>(measured));
}

TEST(Tightness, CompleteGraphHalfDuplexNearTheKnownCoefficient) {
  // Exhaustive optima for K4/K5 vs 1.4404·log2(n): the ratio approaches the
  // coefficient from above.
  search::SolveOptions opts;
  opts.mode = Mode::kHalfDuplex;
  const int g4 = search::solve(topology::complete(4), opts).rounds;
  const int g5 = search::solve(topology::complete(5), opts).rounds;
  EXPECT_GE(g4, 1.4404 * std::log2(4.0) - 1e-9);
  EXPECT_GE(g5, 1.4404 * std::log2(5.0) - 1e-9);
  EXPECT_LE(g4 / std::log2(4.0), 2.01);
  EXPECT_LE(g5 / std::log2(5.0), 2.16);
}

// Randomized audit sweep: any structurally valid random systolic schedule
// that achieves gossip respects its own certificate.
class AuditSweep : public ::testing::TestWithParam<int> {};

TEST_P(AuditSweep, CertificateHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const auto mode = GetParam() % 2 == 0 ? Mode::kHalfDuplex : Mode::kFullDuplex;
  const int n = 8 + 2 * (GetParam() % 5);
  const auto g = topology::complete(n);
  const int s = 3 + GetParam() % 5;
  const auto cs = CompiledSchedule::compile(
      protocol::random_systolic_schedule(g, s, mode, rng), &g);
  const int measured = simulator::gossip_time(cs, 5000);
  if (measured < 0) GTEST_SKIP() << "random schedule does not gossip";
  const auto audit = core::audit_schedule(cs);
  EXPECT_LE(audit.round_lower_bound, measured);
  // Complete-graph random matchings keep most vertices busy, so the
  // certificate is within the general band.
  const auto duplex =
      mode == Mode::kFullDuplex ? core::Duplex::kFull : core::Duplex::kHalf;
  EXPECT_GE(audit.e_coeff + 1e-9, core::e_general(s, duplex));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditSweep, ::testing::Range(0, 20));

}  // namespace
}  // namespace sysgo
