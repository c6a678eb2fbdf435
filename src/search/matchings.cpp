#include "search/matchings.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "search/state.hpp"

namespace sysgo::search {
namespace {

using protocol::Mode;
using protocol::Round;

// Branches on the lowest-index free vertex v: match it along each of its
// links, or leave it unmatched for good.  A matching is maximal iff no link
// joins two unmatched vertices, and every such link is seen when the later
// of its ends is left unmatched, so that branch dies there and every leaf
// is a maximal matching.
struct Enumerator {
  Mode mode;
  int n;
  // Link masks without self-loops.  Half duplex: tails[v] holds the heads
  // of v's out-arcs, heads[v] the tails of its in-arcs.  Full duplex:
  // tails[v] holds the vertices joined to v in both directions.
  std::array<std::uint16_t, kMaxVertices> tails{};
  std::array<std::uint16_t, kMaxVertices> heads{};
  std::vector<graph::Arc> current;
  std::vector<Round> out;

  Enumerator(const graph::Digraph& g, Mode m) : mode(m), n(g.vertex_count()) {
    for (int v = 0; v < n; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      for (int w : g.out_neighbors(v))
        if (w != v) tails[sv] = static_cast<std::uint16_t>(tails[sv] | (1u << w));
      for (int w : g.in_neighbors(v))
        if (w != v) heads[sv] = static_cast<std::uint16_t>(heads[sv] | (1u << w));
      if (mode == Mode::kFullDuplex) {
        tails[sv] &= heads[sv];
        heads[sv] = 0;
      }
    }
  }

  // Covers free vertex v and its partner with arc a (full duplex adds the
  // opposite arc).
  void match(int v, graph::Arc a, std::uint32_t done, std::uint32_t unmatched) {
    const std::size_t mark = current.size();
    current.push_back(a);
    if (mode == Mode::kFullDuplex) current.push_back({a.head, a.tail});
    run(v + 1, done | (1u << a.tail) | (1u << a.head), unmatched);
    current.resize(mark);
  }

  void run(int v, std::uint32_t done, std::uint32_t unmatched) {
    while (v < n && (done >> v) & 1u) ++v;
    if (v == n) {
      if (current.empty()) return;  // no links at all
      out.push_back(Round{current});
      out.back().canonicalize();
      return;
    }
    const auto sv = static_cast<std::size_t>(v);
    const std::uint32_t free = ~done;
    for (std::uint32_t m = tails[sv] & free; m != 0; m &= m - 1)
      match(v, {v, std::countr_zero(m)}, done, unmatched);
    for (std::uint32_t m = heads[sv] & free; m != 0; m &= m - 1)
      match(v, {std::countr_zero(m), v}, done, unmatched);
    if (((tails[sv] | heads[sv]) & unmatched) == 0)
      run(v + 1, done | (1u << v), unmatched | (1u << v));
  }
};

}  // namespace

std::vector<Round> maximal_matchings(const graph::Digraph& g, Mode mode) {
  if (g.vertex_count() > kMaxVertices)
    throw std::invalid_argument("maximal_matchings: n <= 12 required");
  Enumerator e(g, mode);
  e.run(0, 0, 0);
  // The canonical list ordering documented in the header: lexicographic by
  // (canonicalized) arc vector, no duplicates.
  std::sort(e.out.begin(), e.out.end(),
            [](const Round& a, const Round& b) { return a.arcs < b.arcs; });
  e.out.erase(std::unique(e.out.begin(), e.out.end()), e.out.end());
  return std::move(e.out);
}

}  // namespace sysgo::search
