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
// authoring form.
//
// Determinism: restart r draws from util::Rng(derive_seed(seed, r)) — its
// own stream, independent of scheduling — and best-of-K selection breaks
// objective ties by the lowest restart index, so results are byte-identical
// for any thread count (given time_budget_ms == 0; a wall-clock budget
// necessarily trades that away and is off by default).
//
// Warm starts: restart 0 anneals from the edge-coloring schedule (so the
// result never loses to the classic builder); with exact_warm_start and
// n <= search::kMaxVertices, restart 1 starts from an exact-search witness
// (already optimal in rounds; annealing can still shrink period / links).
// Remaining restarts start from seeded random matchings.
#pragma once

#include <cstdint>

#include "graph/digraph.hpp"
#include "protocol/systolic.hpp"
#include "synth/objective.hpp"

namespace sysgo::synth {

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
  /// Period ceiling for grow moves; 0 = auto (twice the edge-coloring
  /// period, at least 4).
  int max_period = 0;
  /// 0: restarts on the process-wide pool; 1: serial; k > 1: a private
  /// pool of k lanes for this call.  Results identical for any value.
  unsigned threads = 0;
  /// Seed restart 1 from an exact-search witness when n <= 12 (costs a
  /// solver run; off by default).
  bool exact_warm_start = false;
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
/// Throws std::invalid_argument for an empty graph or nonsensical budgets.
[[nodiscard]] SynthResult synthesize(const graph::Digraph& g,
                                     const SynthOptions& opts = {});

}  // namespace sysgo::synth
