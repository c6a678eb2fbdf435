// Quickstart: compute the paper's general systolic lower bound, build a
// small network with a periodic protocol, simulate it, and certify a lower
// bound for it — the whole library in ~60 lines.
//
//   $ ./quickstart
#include <cstdio>
#include <stdexcept>

#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "protocol/builders.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/de_bruijn.hpp"
#include "util/table.hpp"

int main() {
  using namespace sysgo;

  // 1. The general bound of Corollary 4.4: any 4-systolic half-duplex
  //    gossip protocol needs >= e(4)·log2(n) − O(log log n) rounds.
  const double e4 = core::e_general(4, core::Duplex::kHalf);
  std::printf("general 4-systolic half-duplex coefficient e(4) = %.4f\n", e4);

  // 2. Build the undirected de Bruijn network DB(2,6) (64 vertices).
  const auto g = topology::de_bruijn(2, 6);
  std::printf("network: DB(2,6), n = %d, %zu arcs\n", g.vertex_count(),
              g.arc_count());

  // 3. Derive a periodic ("traffic-light") protocol from an edge coloring,
  //    and compile it against the network once: the one structural
  //    validation (every round a matching, every arc in g).  The steps
  //    below execute the compiled form.
  const auto sched = protocol::edge_coloring_schedule(g, protocol::Mode::kHalfDuplex);
  std::printf("edge-coloring schedule: period s = %d\n", sched.period_length());
  protocol::CompiledSchedule cs;
  try {
    cs = protocol::CompiledSchedule::compile(sched, &g);
  } catch (const std::invalid_argument& e) {
    std::printf("structural validation: %s\n", e.what());
    return 1;
  }
  std::printf("structural validation: ok\n");

  // 4. Simulate gossip to completion.
  const int measured = simulator::gossip_time(cs, 100000);
  std::printf("measured gossip time: %d rounds\n", measured);

  // 5. Certify a lower bound for this specific schedule (Theorem 4.1).
  const auto audit = core::audit_schedule(cs);
  std::printf("audit: lambda* = %.6f, e = %.4f, certified lower bound = %d rounds\n",
              audit.lambda_star, audit.e_coeff, audit.round_lower_bound);
  std::printf("certificate %s measured time (%d <= %d)\n",
              audit.round_lower_bound <= measured ? "respects" : "VIOLATES",
              audit.round_lower_bound, measured);
  return 0;
}
