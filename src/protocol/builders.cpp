#include "protocol/builders.hpp"

#include <algorithm>

#include "graph/coloring.hpp"
#include "graph/matching.hpp"

namespace sysgo::protocol {

SystolicSchedule edge_coloring_schedule(const graph::Digraph& g, Mode mode) {
  const graph::EdgeColoring coloring = graph::greedy_edge_coloring(g);
  SystolicSchedule sched;
  sched.n = g.vertex_count();
  sched.mode = mode;
  const int rounds_per_color = (mode == Mode::kHalfDuplex) ? 2 : 1;
  sched.period.resize(static_cast<std::size_t>(coloring.color_count) *
                      static_cast<std::size_t>(rounds_per_color));
  for (std::size_t i = 0; i < coloring.edges.size(); ++i) {
    const auto [u, v] = coloring.edges[i];
    const int c = coloring.colors[i];
    if (mode == Mode::kFullDuplex) {
      auto& round = sched.period[static_cast<std::size_t>(c)];
      round.arcs.push_back({u, v});
      round.arcs.push_back({v, u});
    } else {
      sched.period[static_cast<std::size_t>(2 * c)].arcs.push_back({u, v});
      sched.period[static_cast<std::size_t>(2 * c + 1)].arcs.push_back({v, u});
    }
  }
  for (auto& r : sched.period) r.canonicalize();
  return sched;
}

namespace {

Round random_round(const graph::Digraph& g, Mode mode, util::Rng& rng) {
  Round round;
  if (mode == Mode::kFullDuplex) {
    auto edges = g.undirected_edges();
    std::shuffle(edges.begin(), edges.end(), rng.engine());
    std::vector<char> used(static_cast<std::size_t>(g.vertex_count()), 0);
    for (const auto& [u, v] : edges) {
      if (used[static_cast<std::size_t>(u)] || used[static_cast<std::size_t>(v)])
        continue;
      used[static_cast<std::size_t>(u)] = used[static_cast<std::size_t>(v)] = 1;
      round.arcs.push_back({u, v});
      round.arcs.push_back({v, u});
    }
  } else {
    std::vector<graph::Arc> pool(g.arcs().begin(), g.arcs().end());
    std::shuffle(pool.begin(), pool.end(), rng.engine());
    round.arcs = graph::greedy_matching(pool, g.vertex_count());
  }
  round.canonicalize();
  return round;
}

}  // namespace

SystolicSchedule random_systolic_schedule(const graph::Digraph& g, int s, Mode mode,
                                          util::Rng& rng) {
  SystolicSchedule sched;
  sched.n = g.vertex_count();
  sched.mode = mode;
  sched.period.reserve(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i) sched.period.push_back(random_round(g, mode, rng));
  return sched;
}

}  // namespace sysgo::protocol
