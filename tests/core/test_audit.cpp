#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "linalg/roots.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace sysgo::core {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

// ------------------------------------------------- per-vertex reference
//
// The audit evaluates each activity class once; the reference below is
// the plain per-vertex formula — the max of vertex_norm_bound over every
// vertex, bisected with the same linalg::bisect call, and the lowest-index
// worst vertex — so the two must agree bit for bit.

double reference_norm(const std::vector<VertexActivity>& acts, int s,
                      double lambda, Mode mode) {
  double worst = 0.0;
  for (const auto& act : acts)
    worst = std::max(worst, vertex_norm_bound(act, s, lambda, mode));
  return worst;
}

AuditResult reference_audit(const CompiledSchedule& cs) {
  const auto acts = vertex_activities(cs);
  const int s = cs.period_length();
  const Mode mode = cs.mode();
  constexpr double kLo = 1e-9;
  constexpr double kHi = 1.0 - 1e-9;
  const auto f = [&](double lam) {
    return reference_norm(acts, s, lam, mode) - 1.0;
  };
  AuditResult res;
  res.lambda_star = f(kHi) <= 0.0 ? kHi : linalg::bisect(f, kLo, kHi).x;
  res.e_coeff = e_coefficient(res.lambda_star);
  res.round_lower_bound = theorem41_round_bound(res.lambda_star, cs.n());
  double worst = -1.0;
  for (std::size_t v = 0; v < acts.size(); ++v) {
    const double b = vertex_norm_bound(acts[v], s, res.lambda_star, mode);
    if (b > worst) {
      worst = b;
      res.worst_vertex = static_cast<int>(v);
    }
  }
  return res;
}

// The Theorem 5.1 grid scan of audit_schedule_with_separator over the
// per-vertex norm.
SeparatorAuditResult reference_separator_audit(
    const CompiledSchedule& cs, int distance, std::size_t min_size) {
  const auto acts = vertex_activities(cs);
  const double log_c = std::log2(static_cast<double>(min_size));
  SeparatorAuditResult best;
  for (int i = 1; i < 512; ++i) {
    const double lambda = static_cast<double>(i) / 512;
    const double f =
        reference_norm(acts, cs.period_length(), lambda, cs.mode());
    if (f > 1.0 || f <= 0.0) continue;
    const double log_inv = std::log2(1.0 / lambda);
    const double rhs = log_c + (distance - 1) * std::log2(1.0 / f);
    int t = std::max(1, distance);
    while (t * log_inv + std::log2(static_cast<double>(t - distance + 2)) +
               std::log2(static_cast<double>(t)) <
           rhs)
      ++t;
    if (t > best.round_lower_bound) {
      best.round_lower_bound = t;
      best.lambda = lambda;
    }
  }
  return best;
}

void expect_matches_reference(const CompiledSchedule& cs,
                              const std::string& name) {
  const auto got = audit_schedule(cs);
  const auto want = reference_audit(cs);
  EXPECT_EQ(got.lambda_star, want.lambda_star) << name;
  EXPECT_EQ(got.e_coeff, want.e_coeff) << name;
  EXPECT_EQ(got.round_lower_bound, want.round_lower_bound) << name;
  EXPECT_EQ(got.worst_vertex, want.worst_vertex) << name;
  const auto acts = vertex_activities(cs);
  for (const double lambda : {0.05, 0.3, 0.5, want.lambda_star, 0.8, 0.99})
    EXPECT_EQ(audit_norm_bound(cs, lambda),
              reference_norm(acts, cs.period_length(), lambda, cs.mode()))
        << name << " lambda=" << lambda;
}

TEST(Audit, ClassAuditMatchesPerVertexReferenceOnFamilies) {
  using topology::Family;
  for (const Family f : {Family::kButterfly, Family::kWrappedButterfly,
                         Family::kKautz, Family::kDeBruijn})
    for (int D = 4; D <= 7; ++D)
      for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
        const auto g = topology::make_family(f, 2, D);
        const auto cs = CompiledSchedule::compile(
            protocol::edge_coloring_schedule(g, mode),
            g.is_symmetric() ? &g : nullptr);
        const std::string name = topology::family_name(f, 2) + " D=" +
                                 std::to_string(D) +
                                 (mode == Mode::kFullDuplex ? " full" : " half");
        expect_matches_reference(cs, name);
        if (D > 5) continue;  // the 511-point scan is slow per vertex
        for (const auto& [distance, min_size] :
             {std::pair<int, std::size_t>{2, 4}, {D, std::size_t{1} << (D - 1)}}) {
          const auto got = audit_schedule_with_separator(cs, distance, min_size);
          const auto want = reference_separator_audit(cs, distance, min_size);
          EXPECT_EQ(got.lambda, want.lambda) << name << " dist=" << distance;
          EXPECT_EQ(got.round_lower_bound, want.round_lower_bound)
              << name << " dist=" << distance;
        }
      }
}

TEST(Audit, WorstClassNeedNotContainVertexZero) {
  // Half duplex, period 4: vertex 0 only sends (bound 0), 1 and 2 relay
  // with (L, R) = (2, 1) and (1, 1), and 3 and 4 share the summary
  // (L, R) = (2, 2) over all four rounds — the worst class, first held by
  // vertex 3.
  protocol::SystolicSchedule half;
  half.n = 5;
  half.mode = Mode::kHalfDuplex;
  half.period = {{{{0, 1}, {3, 4}}}, {{{1, 2}, {4, 3}}},
                 {{{2, 1}, {3, 4}}}, {{{4, 3}}}};
  // Full duplex, period 3: 3 and 4 exchange every round, 1 twice, 0 and 2
  // once.
  protocol::SystolicSchedule full;
  full.n = 5;
  full.mode = Mode::kFullDuplex;
  full.period = {{{{0, 1}, {1, 0}, {3, 4}, {4, 3}}},
                 {{{1, 2}, {2, 1}, {3, 4}, {4, 3}}},
                 {{{3, 4}, {4, 3}}}};
  for (const auto* sched : {&half, &full}) {
    const auto cs = CompiledSchedule::compile(*sched);
    const auto acts = vertex_activities(cs);
    EXPECT_EQ(acts[3], acts[4]);
    EXPECT_NE(acts[0], acts[3]);
    EXPECT_EQ(audit_schedule(cs).worst_vertex, 3);
    expect_matches_reference(cs, sched == &half ? "half" : "full");
    const auto got = audit_schedule_with_separator(cs, 2, 2);
    const auto want = reference_separator_audit(cs, 2, 2);
    EXPECT_EQ(got.lambda, want.lambda);
    EXPECT_EQ(got.round_lower_bound, want.round_lower_bound);
  }
}

TEST(Audit, VertexActivitiesOnPathSchedule) {
  // P4 half-duplex, period 4: rounds {(0,1),(2,3)}, {(1,2)}, {(1,0),(3,2)}, {(2,1)}.
  const auto acts = vertex_activities(
      CompiledSchedule::compile(protocol::path_schedule(4, Mode::kHalfDuplex)));
  ASSERT_EQ(acts.size(), 4u);
  // Endpoint 0: one in-round, one out-round per period.
  EXPECT_EQ(acts[0].left_rounds, 1);
  EXPECT_EQ(acts[0].right_rounds, 1);
  // Middle vertex 1: receives from 0 and 2, sends to 0 and 2.
  EXPECT_EQ(acts[1].left_rounds, 2);
  EXPECT_EQ(acts[1].right_rounds, 2);
}

TEST(Audit, NormBoundIncreasingInLambda) {
  const auto cs =
      CompiledSchedule::compile(protocol::cycle_schedule(8, Mode::kHalfDuplex));
  EXPECT_LT(audit_norm_bound(cs, 0.3), audit_norm_bound(cs, 0.6));
}

TEST(Audit, EvenCycleMatchesGeneralS4Bound) {
  // Even cycle edge classes give every vertex L = R = 2 over period 4, so
  // the audit certifies exactly the general e(4) = 1.8133.
  const auto sched = protocol::cycle_schedule(8, Mode::kHalfDuplex);
  ASSERT_EQ(sched.period_length(), 4);
  const auto res = audit_schedule(CompiledSchedule::compile(sched));
  EXPECT_NEAR(res.e_coeff, e_general(4, Duplex::kHalf), 1e-6);
}

TEST(Audit, PathEndpointsDoNotWeakenBound) {
  // Path endpoints have L = R = 1 (weaker local norm); the max is still the
  // middle vertices' balanced pattern.
  const auto res = audit_schedule(
      CompiledSchedule::compile(protocol::path_schedule(8, Mode::kHalfDuplex)));
  EXPECT_NEAR(res.e_coeff, e_general(4, Duplex::kHalf), 1e-6);
}

TEST(Audit, CertifiedBoundHoldsOnConcreteRuns) {
  // The audit's round bound must never exceed the measured gossip time.
  struct Case {
    protocol::SystolicSchedule sched;
    int max_rounds;
  };
  std::vector<Case> cases;
  cases.push_back({protocol::path_schedule(16, Mode::kHalfDuplex), 400});
  cases.push_back({protocol::cycle_schedule(16, Mode::kHalfDuplex), 400});
  cases.push_back({protocol::hypercube_schedule(4, Mode::kFullDuplex), 100});
  cases.push_back({protocol::grid_schedule(4, 4, Mode::kHalfDuplex), 600});
  for (auto& c : cases) {
    const auto cs = CompiledSchedule::compile(c.sched);
    const int measured = simulator::gossip_time(cs, c.max_rounds);
    ASSERT_GT(measured, 0);
    const auto res = audit_schedule(cs);
    EXPECT_LE(res.round_lower_bound, measured)
        << "n=" << c.sched.n << " s=" << c.sched.period_length();
  }
}

TEST(Audit, FullDuplexHypercubeMatchesGeometricBound) {
  // Every vertex is active every round: the per-vertex cyclic gap sums equal
  // λ + ... + λ^{s-1}, i.e. the audit reproduces the Section 6 general bound.
  const int D = 4;
  const auto res = audit_schedule(
      CompiledSchedule::compile(protocol::hypercube_schedule(D, Mode::kFullDuplex)));
  EXPECT_NEAR(res.e_coeff, e_general(D, Duplex::kFull), 1e-6);
}

TEST(Audit, IdleRoundsDoNotWeakenTheCertificate) {
  // The per-vertex bound depends only on the activation *counts* per period
  // (Lemma 4.2), so spreading the same activations over a doubled period
  // with idle rounds leaves the certificate unchanged — while the general
  // e(s) bound for the doubled period would be weaker.  This is exactly the
  // audit's refinement over the worst-case split.
  const auto dense = protocol::cycle_schedule(8, Mode::kHalfDuplex);
  auto sparse = dense;
  sparse.period.clear();
  for (const auto& r : dense.period) {
    sparse.period.push_back(r);
    sparse.period.push_back({});
  }
  const auto res_dense = audit_schedule(CompiledSchedule::compile(dense));
  const auto res_sparse = audit_schedule(CompiledSchedule::compile(sparse));
  EXPECT_NEAR(res_sparse.e_coeff, res_dense.e_coeff, 1e-9);
  EXPECT_GT(res_sparse.e_coeff,
            e_general(sparse.period_length(), Duplex::kHalf) + 1e-6);
}

TEST(Audit, WorstVertexIsARelay) {
  const auto cs =
      CompiledSchedule::compile(protocol::path_schedule(8, Mode::kHalfDuplex));
  const auto res = audit_schedule(cs);
  ASSERT_GE(res.worst_vertex, 0);
  const auto acts = vertex_activities(cs);
  EXPECT_GT(acts[static_cast<std::size_t>(res.worst_vertex)].left_rounds, 0);
  EXPECT_GT(acts[static_cast<std::size_t>(res.worst_vertex)].right_rounds, 0);
}

TEST(Audit, RandomSchedulesNeverBeatTheirAudit) {
  util::Rng rng(2024);
  const auto g = topology::de_bruijn(2, 4);
  for (int trial = 0; trial < 5; ++trial) {
    const int s = 3 + trial;
    const auto cs = CompiledSchedule::compile(
        protocol::random_systolic_schedule(g, s, Mode::kHalfDuplex, rng));
    const int measured = simulator::gossip_time(cs, 4000);
    if (measured < 0) continue;  // random schedule may not gossip; skip
    const auto res = audit_schedule(cs);
    EXPECT_LE(res.round_lower_bound, measured) << "s=" << s;
  }
}

TEST(Audit, PeriodBelowThreeGetsNoCertificate) {
  // C6 full duplex in period 2 gossips in 3 rounds.  Theorem 4.1 needs
  // s >= 3: at s = 2 the norm bound stays below 1 for every lambda < 1, and
  // the round count built from lambda* ~ 1 would claim 4.
  protocol::SystolicSchedule c6;
  c6.n = 6;
  c6.mode = Mode::kFullDuplex;
  c6.period = {{{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}}},
               {{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {5, 0}, {0, 5}}}};
  ASSERT_EQ(simulator::gossip_time(CompiledSchedule::compile(c6), 100), 3);
  const auto res = audit_schedule(CompiledSchedule::compile(c6));
  EXPECT_FALSE(res.certified());
  EXPECT_EQ(res.lambda_star, -1.0);
  EXPECT_EQ(res.e_coeff, -1.0);
  EXPECT_EQ(res.round_lower_bound, -1);
  EXPECT_EQ(res.worst_vertex, -1);
  // Period 1 is degenerate too; period 3 is certified.
  protocol::SystolicSchedule one = c6;
  one.period.resize(1);
  EXPECT_FALSE(audit_schedule(CompiledSchedule::compile(one)).certified());
  protocol::SystolicSchedule three = c6;
  three.period.push_back({});
  EXPECT_TRUE(audit_schedule(CompiledSchedule::compile(three)).certified());
}

TEST(Audit, EmptyPeriodRejected) {
  // An empty period never reaches the audit: compiling it fails.
  protocol::SystolicSchedule sched;
  sched.n = 4;
  EXPECT_THROW((void)CompiledSchedule::compile(sched), std::invalid_argument);
}

TEST(Audit, CompiledEntryPointsRejectFiniteProtocols) {
  // A finite protocol's length is not a period; auditing one (including a
  // zero-round protocol, which would certify nonsense) must fail loudly.
  protocol::Protocol p;
  p.n = 4;
  const auto empty = CompiledSchedule::compile(p);
  EXPECT_THROW((void)audit_schedule(empty), std::invalid_argument);
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}};
  const auto finite = CompiledSchedule::compile(p);
  EXPECT_THROW((void)audit_schedule(finite), std::invalid_argument);
  EXPECT_THROW((void)audit_norm_bound(finite, 0.5), std::invalid_argument);
  EXPECT_THROW((void)audit_schedule_with_separator(finite, 2, 2),
               std::invalid_argument);
}

TEST(Audit, NonRelayingScheduleDegenerates) {
  // One-directional star: center receives but never sends onward items
  // can't relay -> norm bound ~0, certificate weak but well-defined.
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.mode = Mode::kHalfDuplex;
  // Only inbound to 0; the idle third round keeps the period at 3, the
  // shortest one Theorem 4.1 certifies.
  sched.period = {{{{1, 0}}}, {{{2, 0}}}, {}};
  const auto res = audit_schedule(CompiledSchedule::compile(sched));
  EXPECT_GT(res.lambda_star, 0.9);  // norm below 1 for all λ
}

// vertex_activities walks each compiled round's arc (half duplex) or pair
// (full duplex) span; the reference flags every vertex's incoming and
// outgoing activations per round straight from the authored arcs.
TEST(Audit, ActivitiesMatchAnAuthoredArcWalk) {
  util::Rng rng(42);
  const auto g = topology::de_bruijn(2, 4).symmetric_closure();
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    for (const auto& sched :
         {protocol::random_systolic_schedule(g, 6, mode, rng),
          protocol::edge_coloring_schedule(g, mode)}) {
      const auto n = static_cast<std::size_t>(sched.n);
      std::vector<VertexActivity> want(n);
      for (int r = 0; r < sched.period_length(); ++r) {
        std::vector<int> in(n, 0);
        std::vector<int> out(n, 0);
        for (const auto& a : sched.period[static_cast<std::size_t>(r)].arcs) {
          out[static_cast<std::size_t>(a.tail)] = 1;
          in[static_cast<std::size_t>(a.head)] = 1;
        }
        for (std::size_t v = 0; v < n; ++v) {
          want[v].left_rounds += in[v];
          want[v].right_rounds += out[v];
          if (in[v] != 0 || out[v] != 0) want[v].active_rounds.push_back(r);
        }
      }
      const auto acts = vertex_activities(CompiledSchedule::compile(sched));
      ASSERT_EQ(acts.size(), n);
      for (std::size_t v = 0; v < n; ++v) {
        EXPECT_EQ(acts[v].left_rounds, want[v].left_rounds) << v;
        EXPECT_EQ(acts[v].right_rounds, want[v].right_rounds) << v;
        EXPECT_EQ(acts[v].active_rounds, want[v].active_rounds) << v;
      }
    }
  }
}

TEST(Audit, AuditNormBoundRejectsBadLambda) {
  const auto cs =
      CompiledSchedule::compile(protocol::path_schedule(4, Mode::kHalfDuplex));
  EXPECT_THROW((void)audit_norm_bound(cs, 0.0), std::invalid_argument);
  EXPECT_THROW((void)audit_norm_bound(cs, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::core
