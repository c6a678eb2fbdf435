// Protocol auditing walkthrough: author a custom systolic protocol by hand,
// validate it, inspect its delay digraph and delay matrix, and derive a
// certified lower bound — the paper's machinery applied as a tool.
//
//   $ ./audit_protocol
#include <cstdio>
#include <stdexcept>

#include "core/audit.hpp"
#include "core/delay_matrix.hpp"
#include "protocol/systolic.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"

int main() {
  using namespace sysgo;
  using protocol::Mode;

  // A hand-written 4-systolic half-duplex protocol on the 8-cycle:
  // alternate even/odd edge classes clockwise, then counter-clockwise.
  const int n = 8;
  protocol::SystolicSchedule sched;
  sched.n = n;
  sched.mode = Mode::kHalfDuplex;
  protocol::Round cw_even, cw_odd, ccw_even, ccw_odd;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    ((i % 2 == 0) ? cw_even : cw_odd).arcs.push_back({i, j});
    ((i % 2 == 0) ? ccw_even : ccw_odd).arcs.push_back({j, i});
  }
  sched.period = {cw_even, cw_odd, ccw_even, ccw_odd};

  // Validate once, against the network: compiling checks every round is a
  // matching of C8's arcs, and everything below runs the compiled form.
  const auto g = topology::cycle(n);
  protocol::CompiledSchedule cs;
  try {
    cs = protocol::CompiledSchedule::compile(sched, &g);
  } catch (const std::invalid_argument& e) {
    std::printf("validation: %s\n", e.what());
    return 1;
  }
  std::printf("validation: ok\n");

  // Per-vertex activity: every cycle vertex relays with L = R = 2 per period.
  const auto acts = core::vertex_activities(cs);
  std::printf("vertex 0 activity per period: %d left rounds, %d right rounds\n",
              acts[0].left_rounds, acts[0].right_rounds);

  // Delay digraph over three periods.
  const core::DelayDigraph dg(cs, 3 * cs.period_length());
  std::printf("delay digraph: %zu activations, %zu delay arcs (window s = %d)\n",
              dg.node_count(), dg.arc_count(), dg.period());

  // Exact norm of the delay matrix vs the audit's analytic bound.
  for (double lam : {0.4, 0.55, 0.68}) {
    std::printf("lambda = %.2f: ||M(lambda)|| exact = %.4f, audit bound = %.4f\n",
                lam, core::delay_matrix_norm(dg, lam),
                core::audit_norm_bound(cs, lam));
  }

  // The certificate.
  const auto audit = core::audit_schedule(cs);
  const int measured = simulator::gossip_time(cs, 1000);
  std::printf("certified lower bound: %d rounds (lambda* = %.4f, e = %.4f)\n",
              audit.round_lower_bound, audit.lambda_star, audit.e_coeff);
  std::printf("measured gossip time:  %d rounds\n", measured);
  return 0;
}
