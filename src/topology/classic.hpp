// Classic interconnection topologies (all as symmetric digraphs):
// path, cycle, grid, torus, complete graph, hypercube, complete d-ary tree.
// These are the networks for which the systolic-gossip literature has
// matching upper bounds ([8,11,14,20]); we use them as protocol testbeds.
#pragma once

#include "graph/digraph.hpp"

namespace sysgo::topology {

/// Path P_n: vertices 0..n-1, edges {i, i+1}.
[[nodiscard]] graph::Digraph path(int n);

/// Cycle C_n: path plus edge {n-1, 0}.
[[nodiscard]] graph::Digraph cycle(int n);

/// rows x cols grid; vertex (r, c) has index r*cols + c.
[[nodiscard]] graph::Digraph grid(int rows, int cols);

/// rows x cols torus (grid with wraparound edges).
[[nodiscard]] graph::Digraph torus(int rows, int cols);

/// Largest complete graph built: K_n has n(n-1) arcs, so the cap keeps it
/// at ~16.8 M arcs (the cap the random families use too).
inline constexpr int kMaxCompleteOrder = 4096;

/// Complete graph K_n, 2 <= n <= kMaxCompleteOrder.
[[nodiscard]] graph::Digraph complete(int n);

/// Hypercube Q_D: 2^D vertices, edges between words at Hamming distance 1.
[[nodiscard]] graph::Digraph hypercube(int D);

/// Complete d-ary tree of given height (height 0 = single vertex).
/// Vertex 0 is the root; children of v are d*v+1 ... d*v+d.
[[nodiscard]] graph::Digraph complete_tree(int d, int height);

}  // namespace sysgo::topology
