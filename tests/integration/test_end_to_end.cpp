// End-to-end pipeline: topology -> schedule -> validation -> simulation ->
// delay digraph -> delay matrix -> audit certificate, with each stage's
// output feeding the next and the norm chain
//   ‖M(λ)‖_exact <= audit bound <= F(λ, s)
// holding throughout.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/audit.hpp"
#include "core/delay_matrix.hpp"
#include "protocol/builders.hpp"
#include "simulator/broadcast_sim.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/de_bruijn.hpp"

namespace sysgo {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(EndToEnd, DeBruijnPipeline) {
  const auto g = topology::de_bruijn(2, 4);
  const auto sched = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);

  // 1. Structural validity against the network: every later stage runs
  // this one compiled form.
  const auto compiled = CompiledSchedule::compile(sched, &g);

  // 2. The schedule achieves gossip.
  const int measured = simulator::gossip_time(compiled, 3000);
  ASSERT_GT(measured, 0);

  // 3. The expanded protocol is systolic with the schedule's period.
  const auto p = sched.expand(measured);
  EXPECT_TRUE(protocol::is_systolic(p, sched.period_length()));
  EXPECT_TRUE(simulator::run_gossip(CompiledSchedule::compile(p, &g)).complete);

  // 4. Audit certificate below the measured time.
  const auto audit = core::audit_schedule(compiled);
  EXPECT_GT(audit.round_lower_bound, 0);
  EXPECT_LE(audit.round_lower_bound, measured);

  // 5. Norm chain at a few λ values over a 3-period window.
  const core::DelayDigraph dg(compiled, 3 * compiled.period_length());
  for (double lam : {0.35, 0.5}) {
    const double exact = core::delay_matrix_norm(dg, lam);
    const double audit_bound = core::audit_norm_bound(compiled, lam);
    EXPECT_LE(exact, audit_bound + 1e-9) << "lam=" << lam;
  }

  // 6. At the certified λ*, the audit bound is exactly 1.
  EXPECT_NEAR(core::audit_norm_bound(compiled, audit.lambda_star), 1.0, 1e-6);
}

TEST(EndToEnd, TruncatedProtocolFailsGossipButKeepsStructure) {
  // Failure injection: cutting the protocol short must flip exactly the
  // completeness verdict, not the structural one.
  const auto g = topology::de_bruijn(2, 3);
  const auto sched = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  const int full_time =
      simulator::gossip_time(CompiledSchedule::compile(sched, &g), 2000);
  ASSERT_GT(full_time, 1);
  const auto truncated = CompiledSchedule::compile(sched.expand(full_time - 1), &g);
  EXPECT_FALSE(simulator::run_gossip(truncated).complete);
}

TEST(EndToEnd, CorruptedRoundIsCaughtByValidation) {
  // Failure injection: adding a conflicting arc to one round must be caught.
  const auto g = topology::de_bruijn(2, 3);
  auto sched = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  ASSERT_FALSE(sched.period.empty());
  auto& round = sched.period.front();
  ASSERT_FALSE(round.arcs.empty());
  const auto a = round.arcs.front();
  round.arcs.push_back({a.head, (a.tail + 1) % sched.n});  // reuse endpoint
  EXPECT_THROW((void)CompiledSchedule::compile(sched, &g), std::invalid_argument);
}

TEST(EndToEnd, BroadcastTimesBoundGossipTime) {
  // max over sources of broadcast time <= gossip time.
  const auto g = topology::de_bruijn(2, 3);
  const auto sched = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  const auto cs = CompiledSchedule::compile(sched, &g);
  const int gossip = simulator::gossip_time(cs, 2000);
  ASSERT_GT(gossip, 0);
  for (int src = 0; src < g.vertex_count(); src += 3) {
    const int b = simulator::broadcast_time(cs, src, 2000);
    ASSERT_GT(b, 0);
    EXPECT_LE(b, gossip);
  }
}

TEST(EndToEnd, AuditScalesToThousandsOfActivations) {
  // A larger instance exercising the sparse path: DB(2,6), 64 vertices.
  const auto g = topology::de_bruijn(2, 6);
  const auto cs = CompiledSchedule::compile(
      protocol::edge_coloring_schedule(g, Mode::kHalfDuplex), &g);
  const auto audit = core::audit_schedule(cs);
  EXPECT_GT(audit.round_lower_bound, 0);
  const core::DelayDigraph dg(cs, 2 * cs.period_length());
  EXPECT_GE(dg.node_count(), 500u);
  const double exact = core::delay_matrix_norm(dg, audit.lambda_star);
  EXPECT_LE(exact, 1.0 + 1e-6);
}

}  // namespace
}  // namespace sysgo
