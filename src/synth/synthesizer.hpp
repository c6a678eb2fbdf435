// Heuristic schedule synthesis: parallel multi-start simulated annealing
// over periodic systolic schedules.
//
// Nothing else in the repo *produces* schedules for arbitrary networks —
// the builders cover classic topologies, the exact solver stops at n <= 12.
// The synthesizer closes that gap: K independent seeded restarts anneal a
// ScheduleDraft through the matching-preserving move set (link insert /
// remove / replace, cross-round move, rotation, period grow / shrink),
// each candidate scored through the compiled simulator (synth/objective),
// and the best-of-K schedule is returned together with its audit-ready
// authoring form.  Each restart ends by compiling its winner with the
// network-membership check and re-scoring it at the full round budget.
//
// Determinism: restart r draws from util::Rng(derive_seed(seed, r)) — its
// own stream, independent of scheduling — and best-of-K selection breaks
// objective ties by the lowest restart index, so results are byte-identical
// for any thread count (given time_budget_ms == 0; a wall-clock budget
// necessarily trades that away and is off by default).
//
// Warm start: restart 0 anneals from the edge-coloring schedule (so the
// result never loses to the classic builder); the remaining restarts start
// from seeded random matchings.  Grow moves stop at a period of
// max(4, 2 × the coloring's period).
#pragma once

#include <cstdint>

#include "graph/digraph.hpp"
#include "protocol/systolic.hpp"
#include "synth/objective.hpp"

namespace sysgo::synth {

/// Largest network synthesize() accepts, 4,096 vertices: the cap the
/// topology registry places on K_n, rr and gnp.  Every annealing move
/// re-simulates an n x n knowledge matrix, so db(3,8) (n = 6,561) runs for
/// minutes; the sweep engine reports such members as sentinel records.
inline constexpr int kMaxVertices = 4096;

struct SynthOptions {
  protocol::Mode mode = protocol::Mode::kHalfDuplex;
  ObjectiveOptions objective;
  int restarts = 16;
  int iterations = 4000;  // annealing steps per restart
  /// Per-restart wall-clock cap in milliseconds; 0 = none.  A nonzero
  /// budget makes results timing-dependent — reproducibility is only
  /// guaranteed at the default 0.
  double time_budget_ms = 0.0;
  std::uint64_t seed = 0x5397a11cULL;
  /// Lanes of the restarts, decoded by util::pool_for: 0 = the
  /// process-wide pool, 1 = serial, k > 1 = a private pool of k lanes for
  /// this call.  Results identical for any value.
  unsigned threads = 0;
};

struct SynthResult {
  protocol::SystolicSchedule schedule;  // best schedule found
  Objective objective;                  // its evaluation
  int best_restart = -1;                // restart that produced it
  int restarts_run = 0;
  std::int64_t moves_proposed = 0;  // across all restarts
  std::int64_t moves_accepted = 0;
  double millis = 0.0;  // wall clock
};

/// Synthesize a schedule for g.  Half-duplex drafts draw candidate links
/// from g's arcs; full-duplex drafts from g's undirected support (like the
/// edge-coloring builder, so non-symmetric digraphs get support schedules).
/// Throws std::invalid_argument for fewer than 2 or more than kMaxVertices
/// vertices, a graph without links, or nonsensical budgets.
[[nodiscard]] SynthResult synthesize(const graph::Digraph& g,
                                     const SynthOptions& opts = {});

}  // namespace sysgo::synth
