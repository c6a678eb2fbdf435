// Exact optimal-protocol search: one symmetry-reduced BFS core.
//
// Computes the exact gossip or broadcast complexity of a concrete network
// (n <= 12) in either duplex mode by breadth-first search over the
// knowledge-state space whose moves are the maximal matchings of the
// network (search/matchings.hpp; restricting to maximal rounds is lossless
// because knowledge is monotone).  Symmetry makes instances tractable that
// the old 64-bit BFS oracle (n <= 8) could not represent or finish: states
// are stored canonically under (a subgroup of) the network's automorphism
// group (symmetry.hpp), dividing the reachable space by up to |Aut(G)|.
//
// Gossip runs one frontier-parallel BFS on the persistent util/thread_pool,
// with or without a witness: a witness run also keeps every sorted layer and
// walks back from the goal through them, so it counts exactly what a plain
// run counts.  Results — rounds, states_explored and the witness — are
// identical for every thread count: the frontier is sorted between layers,
// budget/goal checks happen only at deterministic batch barriers, and set
// membership is order-independent.
//
// Broadcast runs a serial BFS over informed-vertex masks (2^n of them) that
// stops at the goal mid-layer.  Its states_explored therefore counts the
// states stored up to the goal, not up to a batch barrier; that count is
// recorded in solve records and pinned by the benchmark's golden
// (Kautz(2,3) half-duplex: 275), so the loop stays as it is rather than
// joining the gossip BFS.  Its witness comes from the same walk back
// through kept layers as the gossip one, so a broadcast witness run also
// counts exactly what a plain run counts.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "protocol/protocol.hpp"

namespace sysgo::search {

enum class Problem {
  kGossip,     // every vertex learns every item
  kBroadcast,  // every vertex learns the source's item
};

struct SolveOptions {
  Problem problem = Problem::kGossip;
  protocol::Mode mode = protocol::Mode::kHalfDuplex;
  /// Broadcast source vertex (ignored by gossip).
  int source = 0;
  int max_rounds = 64;
  /// Abort with budget_exhausted once this many canonical states are
  /// stored (checked at batch barriers, so the last batch may overshoot).
  std::size_t max_states = 20'000'000;
  /// Lanes of the BFS batches, decoded by util::pool_for: 0 = the
  /// process-wide pool, 1 = serial, k > 1 = a private pool of k lanes FOR
  /// THIS CALL (prefer 0 when solving many instances — the process-wide
  /// pool is persistent).  Results do not depend on this value.
  unsigned threads = 0;
  /// Store states canonically under the automorphism group, capped at
  /// this order: a larger group falls back to identity-only
  /// canonicalization, so 1 turns symmetry reduction off.
  std::size_t max_group_order = 4096;
  /// Reconstruct one optimal protocol (gossip keeps every BFS layer for it;
  /// rounds and states_explored are those of a run without it).
  bool want_witness = false;
};

struct SolveResult {
  /// Exact optimum, or -1 when unreachable within max_rounds / budget.
  int rounds = -1;
  /// Canonical states stored (orbit representatives, so up to |Aut(G)|
  /// fewer than the raw reachable states).
  std::size_t states_explored = 0;
  bool budget_exhausted = false;
  /// Order of the automorphism subgroup used for canonicalization (1 when
  /// Aut(G) is trivial or exceeded max_group_order).
  std::size_t group_order = 1;
  /// One optimal protocol when want_witness was set (empty otherwise;
  /// rounds mapped back to original vertex labels).
  std::vector<protocol::Round> witness;
};

/// Exact optimum for g (n <= kMaxVertices = 12; throws std::invalid_argument
/// beyond, or for a broadcast source out of range).
[[nodiscard]] SolveResult solve(const graph::Digraph& g,
                                const SolveOptions& opts = {});

/// Check a recorded witness through the shared compiled execution path: the
/// witness must have exactly res.rounds rounds, compile against g (every
/// round a matching in opts.mode, every arc present in the network), and
/// its compiled execution must achieve the problem's goal in exactly
/// res.rounds rounds (gossip: all-pairs completion; broadcast: opts.source's
/// item everywhere).  False when any of that fails or no witness was
/// recorded.
[[nodiscard]] bool witness_valid(const graph::Digraph& g,
                                 const SolveOptions& opts,
                                 const SolveResult& res);

}  // namespace sysgo::search
