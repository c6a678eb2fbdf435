#include "search/matchings.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "search/state.hpp"

namespace sysgo::search {
namespace {

using protocol::Mode;
using protocol::Round;

// Enumerate maximal matchings by branching on the lowest-index free vertex.
void enumerate_half_duplex(const graph::Digraph& g, int v, std::uint32_t used,
                           std::vector<graph::Arc>& current,
                           std::vector<Round>& out) {
  const int n = g.vertex_count();
  while (v < n && (used >> v) & 1) ++v;
  if (v == n) {
    out.push_back(Round{current});
    out.back().canonicalize();
    return;
  }
  // v as tail.
  for (int w : g.out_neighbors(v)) {
    if (w == v || ((used >> w) & 1)) continue;
    current.push_back({v, w});
    enumerate_half_duplex(g, v + 1, used | (1u << v) | (1u << w), current, out);
    current.pop_back();
  }
  // v as head.
  for (int w : g.in_neighbors(v)) {
    if (w == v || ((used >> w) & 1)) continue;
    current.push_back({w, v});
    enumerate_half_duplex(g, v + 1, used | (1u << v) | (1u << w), current, out);
    current.pop_back();
  }
  // v left unmatched: such a matching can still be maximal when all of v's
  // partners get used later; enumerate the branch and filter for set
  // maximality afterwards.
  enumerate_half_duplex(g, v + 1, used | (1u << v), current, out);
}

void enumerate_full_duplex(const graph::Digraph& g, int v, std::uint32_t used,
                           std::vector<graph::Arc>& current,
                           std::vector<Round>& out) {
  const int n = g.vertex_count();
  while (v < n && (used >> v) & 1) ++v;
  if (v == n) {
    out.push_back(Round{current});
    out.back().canonicalize();
    return;
  }
  for (int w : g.out_neighbors(v)) {
    if (w <= v || ((used >> w) & 1)) continue;
    if (!g.has_arc(w, v)) continue;  // need the opposite arc
    current.push_back({v, w});
    current.push_back({w, v});
    enumerate_full_duplex(g, v + 1, used | (1u << v) | (1u << w), current, out);
    current.pop_back();
    current.pop_back();
  }
  enumerate_full_duplex(g, v + 1, used | (1u << v), current, out);
}

// Keep only set-maximal rounds (no round strictly contained in another) and
// deduplicate.  The sort here establishes the canonical list ordering
// documented in the header: lexicographic by (canonicalized) arc vector.
std::vector<Round> prune_to_maximal(std::vector<Round> rounds) {
  std::sort(rounds.begin(), rounds.end(),
            [](const Round& a, const Round& b) { return a.arcs < b.arcs; });
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  std::vector<Round> maximal;
  for (const auto& r : rounds) {
    bool dominated = false;
    for (const auto& other : rounds) {
      if (other.arcs.size() <= r.arcs.size() || r == other) continue;
      dominated = std::includes(other.arcs.begin(), other.arcs.end(),
                                r.arcs.begin(), r.arcs.end());
      if (dominated) break;
    }
    if (!dominated && !r.arcs.empty()) maximal.push_back(r);
  }
  return maximal;
}

}  // namespace

std::vector<Round> maximal_matchings(const graph::Digraph& g, Mode mode) {
  if (g.vertex_count() > kMaxVertices)
    throw std::invalid_argument("maximal_matchings: n <= 12 required");
  std::vector<Round> out;
  std::vector<graph::Arc> current;
  if (mode == Mode::kFullDuplex)
    enumerate_full_duplex(g, 0, 0, current, out);
  else
    enumerate_half_duplex(g, 0, 0, current, out);
  return prune_to_maximal(std::move(out));
}

}  // namespace sysgo::search
