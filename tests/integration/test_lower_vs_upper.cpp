// Integration: certified lower bounds vs measured protocol performance.
// For every concrete (network, schedule) pair the Theorem 4.1 certificate
// must sit below the simulated gossip time — the reproduction's core sanity
// invariant.
#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/topology.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace sysgo {
namespace {

using core::audit_schedule;
using protocol::Mode;

struct NamedSchedule {
  std::string name;
  protocol::SystolicSchedule sched;
  int max_rounds;
};

std::vector<NamedSchedule> test_corpus() {
  std::vector<NamedSchedule> out;
  out.push_back({"path16-hd", protocol::path_schedule(16, Mode::kHalfDuplex), 400});
  out.push_back({"path16-fd", protocol::path_schedule(16, Mode::kFullDuplex), 400});
  out.push_back({"cycle12-hd", protocol::cycle_schedule(12, Mode::kHalfDuplex), 400});
  out.push_back({"cycle13-hd", protocol::cycle_schedule(13, Mode::kHalfDuplex), 500});
  out.push_back({"grid4x5-hd", protocol::grid_schedule(4, 5, Mode::kHalfDuplex), 800});
  out.push_back({"hyper4-fd", protocol::hypercube_schedule(4, Mode::kFullDuplex), 64});
  out.push_back({"hyper5-hd", protocol::hypercube_schedule(5, Mode::kHalfDuplex), 200});
  out.push_back(
      {"complete16-fd", protocol::complete_power2_schedule(16, Mode::kFullDuplex), 64});
  out.push_back({"debruijn-hd",
                 protocol::edge_coloring_schedule(topology::de_bruijn(2, 5),
                                                  Mode::kHalfDuplex),
                 2000});
  out.push_back({"kautz-fd",
                 protocol::edge_coloring_schedule(topology::kautz(2, 4),
                                                  Mode::kFullDuplex),
                 2000});
  out.push_back({"wbf-hd",
                 protocol::edge_coloring_schedule(topology::wrapped_butterfly(2, 3),
                                                  Mode::kHalfDuplex),
                 2000});
  return out;
}

TEST(LowerVsUpper, CertificateNeverExceedsMeasuredTime) {
  for (const auto& c : test_corpus()) {
    const int measured = simulator::gossip_time(c.sched, c.max_rounds);
    ASSERT_GT(measured, 0) << c.name << " did not complete";
    const auto audit = audit_schedule(c.sched);
    EXPECT_LE(audit.round_lower_bound, measured) << c.name;
    // path16-fd repeats two rounds; Theorem 4.1 certifies periods >= 3.
    if (c.sched.period_length() < 3) {
      EXPECT_FALSE(audit.certified()) << c.name;
      continue;
    }
    EXPECT_GT(audit.round_lower_bound, 0) << c.name;
  }
}

TEST(LowerVsUpper, GeneralBoundHoldsAsymptoticallyOnHypercubes) {
  // Full-duplex dimension-order gossip takes exactly D = log2(n) rounds with
  // period D; the general full-duplex e(D) < 1.2 for D >= 4, consistent.
  for (int D : {4, 5, 6}) {
    const auto sched = protocol::hypercube_schedule(D, Mode::kFullDuplex);
    const int measured = simulator::gossip_time(sched, 4 * D);
    EXPECT_EQ(measured, D);
    const double coeff = core::e_general(D, core::Duplex::kFull);
    // measured >= e(s)·log2(n) − O(log log n): with log2(n) = D the slack
    // term makes the bound ≤ D here; check the ordering is consistent.
    EXPECT_GE(static_cast<double>(measured) + 2.0 * std::log2(D) + 2.0,
              coeff * D);
  }
}

TEST(LowerVsUpper, HalfDuplexCostsMoreThanFullDuplex) {
  for (int n : {8, 16}) {
    const int half =
        simulator::gossip_time(protocol::path_schedule(n, Mode::kHalfDuplex), 500);
    const int full =
        simulator::gossip_time(protocol::path_schedule(n, Mode::kFullDuplex), 500);
    ASSERT_GT(half, 0);
    ASSERT_GT(full, 0);
    EXPECT_GE(half, full);
  }
}

TEST(LowerVsUpper, SystolicPathStrictlySlowerThanDiameter) {
  // [8]: half-duplex systolic gossip on paths is strictly slower than the
  // trivial n-1; our 4-periodic protocol shows the gap.
  const int n = 20;
  const int t = simulator::gossip_time(protocol::path_schedule(n, Mode::kHalfDuplex),
                                       1000);
  ASSERT_GT(t, 0);
  EXPECT_GT(t, n - 1);
}

TEST(LowerVsUpper, AuditCoefficientNeverBelowGeneralCoefficient) {
  // The per-vertex audit is a refinement: e_audit >= e_general(s) for any
  // schedule of period s (worst vertex can't be worse than balanced).
  for (const auto& c : test_corpus()) {
    const int s = c.sched.period_length();
    if (s < 3) continue;
    const auto duplex = c.sched.mode == Mode::kFullDuplex ? core::Duplex::kFull
                                                          : core::Duplex::kHalf;
    const auto audit = audit_schedule(c.sched);
    EXPECT_GE(audit.e_coeff + 1e-9, core::e_general(s, duplex)) << c.name;
  }
}

}  // namespace
}  // namespace sysgo
