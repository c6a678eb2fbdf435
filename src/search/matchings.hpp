// The exact search's move generator: the maximal matchings of a network.
//
// Knowledge only grows, so a round that could add an arc without breaking
// the matching property is never worse with it; the solver therefore
// branches over maximal matchings only, which is lossless.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "protocol/protocol.hpp"

namespace sysgo::search {

/// All maximal matchings of g in the given mode (n <= kMaxVertices = 12;
/// throws std::invalid_argument beyond).  Half-duplex: maximal sets of
/// vertex-disjoint arcs; full-duplex: maximal sets of vertex-disjoint
/// opposite pairs (both arcs listed).  Self-loops never take part, and a
/// network without links has no matchings.  Maximality is enforced during
/// the enumeration: a branch dies as soon as two unmatched vertices are
/// linked, so no non-maximal matching is built and no filter pass follows.
///
/// Canonical ordering contract: every returned round is canonicalized
/// (arcs sorted by (tail, head)) and the list is sorted lexicographically
/// by arc vector, with no duplicates.  The ordering therefore depends only
/// on the arc SET of g — not on arc insertion order — which is what keeps
/// solver results and witness protocols deterministic across thread
/// counts and rebuilt graphs.
[[nodiscard]] std::vector<protocol::Round> maximal_matchings(
    const graph::Digraph& g, protocol::Mode mode);

}  // namespace sysgo::search
