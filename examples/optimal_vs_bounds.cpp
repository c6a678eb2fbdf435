// Exhaustive search on tiny networks: find the true optimal gossip protocol
// and print it alongside the lower-bound machinery — shows the bounds are
// real bounds, and how much slack remains at small n.
//
//   $ ./optimal_vs_bounds
#include <cmath>
#include <cstdio>

#include "graph/search.hpp"
#include "io/protocol_text.hpp"
#include "search/solver.hpp"
#include "topology/classic.hpp"

int main() {
  using namespace sysgo;
  using protocol::Mode;

  const auto g = topology::cycle(6);
  std::printf("network: C6 (n = 6, diameter %d)\n\n", graph::diameter(g));

  for (auto mode : {Mode::kFullDuplex, Mode::kHalfDuplex}) {
    const char* label = mode == Mode::kFullDuplex ? "full-duplex" : "half-duplex";
    search::SolveOptions opts;
    opts.mode = mode;
    opts.max_rounds = 24;
    opts.want_witness = true;
    const auto res = search::solve(g, opts);
    std::printf("%s: optimal gossip time = %d rounds (%zu states explored)\n",
                label, res.rounds, res.states_explored);
    // The res.rounds-round witness as the schedule whose period is those
    // rounds: `sysgo simulate` runs it to the optimum.
    const protocol::SystolicSchedule witness{g.vertex_count(), mode, res.witness};
    std::printf("an optimal protocol:\n%s\n", io::serialize(witness).c_str());
  }

  std::printf("lower bounds for comparison:\n");
  std::printf("  diameter:            %d rounds\n", graph::diameter(g));
  std::printf("  1.4404*log2(n):      %.2f rounds (half-duplex, any protocol)\n",
              1.4404 * std::log2(6.0));
  return 0;
}
