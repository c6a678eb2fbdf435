// Objective evaluation for schedule synthesis.
//
// A candidate schedule's quality is its *measured* completion time through
// the compiled simulator — gossip (all-pairs) or broadcast from a source —
// tie-broken by period length, then active-link count (fewer links = the
// same time with less hardware).  Optionally the Theorem 4.1 audited lower
// bound is evaluated too, and the gap (measured − certified) joins the
// order right after the round count, steering the annealer toward
// schedules the paper's machinery proves near-optimal.
//
// Infeasible candidates (incomplete within max_rounds) rank strictly below
// every feasible one, ordered among themselves by knowledge coverage so
// the annealer still has a gradient toward feasibility.
//
// Three entry points share one objective body (one round loop over a
// links-of-round source, so they produce identical objectives):
//
//   evaluate(cs, opts)       one-shot, from a compiled schedule
//   evaluate_batch           many compiled candidates through one shared
//                            scratch (the restart winners' final
//                            full-budget re-scoring)
//   DraftEvaluator           the annealer's hot path: evaluates a
//                            ScheduleDraft directly — drafts maintain the
//                            matching invariants by construction, so the
//                            per-move CompiledSchedule build (validation,
//                            canonicalization, partner tables, half a dozen
//                            allocations) is skipped, and the scratch
//                            knowledge matrix is reused across moves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "synth/draft.hpp"

namespace sysgo::synth {

enum class Goal {
  kGossip,     // every vertex learns every item
  kBroadcast,  // every vertex learns the source's item
};

struct ObjectiveOptions {
  Goal goal = Goal::kGossip;
  int source = 0;          // broadcast source (ignored by gossip)
  int max_rounds = 4096;   // simulation cap; beyond = infeasible
  /// Add the Theorem 4.1 gap term (gossip goal only — the audit certifies
  /// gossip rounds; the flag is ignored for broadcast).
  bool audit_gap = false;
};

struct Objective {
  bool feasible = false;
  int rounds = -1;     // completion time, -1 when infeasible
  int period = 0;      // schedule period
  int links = 0;       // active links summed over the period
  int coverage = 0;    // items delivered at the end of the run (gradient
                       // signal for infeasible candidates)
  double audit_gap = 0.0;  // rounds − certified lower bound (audit_gap only)

  /// Annealing energy, lower = better: a scalarization the acceptance rule
  /// can take deltas of.  Feasible: rounds·1e6 + gap·1e4 + period·1e3 +
  /// links; infeasible: 1e12 − coverage·1e3 + period.  Approximate at the
  /// decimal boundaries (period >= 10, links >= 1000) — ranking decisions
  /// use better(), which compares the criteria exactly.
  [[nodiscard]] double score() const noexcept;
};

/// Strict "a beats b" under the documented tie order, compared
/// lexicographically: feasible first; then rounds, audit gap, period,
/// links; infeasible candidates by coverage (desc), then period.
[[nodiscard]] bool better(const Objective& a, const Objective& b) noexcept;

/// Evaluate a compiled periodic schedule.  Throws std::invalid_argument for
/// a non-periodic compilation or a broadcast source out of range.
[[nodiscard]] Objective evaluate(const protocol::CompiledSchedule& cs,
                                 const ObjectiveOptions& opts);

/// Evaluate many compiled periodic candidates through one shared scratch
/// arena (one knowledge-matrix allocation for the whole batch).  Entry i
/// equals evaluate(*batch[i], opts).
[[nodiscard]] std::vector<Objective> evaluate_batch(
    std::span<const protocol::CompiledSchedule* const> batch,
    const ObjectiveOptions& opts);

/// Reusable draft evaluator: identical objectives to
/// evaluate(CompiledSchedule::compile(d.to_schedule(), g), opts) with no
/// per-call compile and no per-call allocation.  Drafts reject any move
/// that would break the matching property and only activate pool links, so
/// the compile-time validation is redundant on this path (property-tested
/// in tests/simulator/test_kernels.cpp).  The audit-gap term, when
/// requested and the candidate is feasible, still compiles once — the
/// auditor consumes the flat form.
class DraftEvaluator {
 public:
  /// Evaluate a draft from round 0.  Throws std::invalid_argument for a
  /// broadcast source out of range.
  [[nodiscard]] Objective evaluate(const ScheduleDraft& draft,
                                   const ObjectiveOptions& opts);

  /// Test hook: backing words of the scratch knowledge matrix (nullptr
  /// before the first gossip evaluation).  Stable across goal switches at
  /// a fixed n — broadcast runs never touch the knowledge scratch.
  [[nodiscard]] const std::uint64_t* scratch_data() const noexcept;

 private:
  simulator::GossipArena arena_;  // gossip scratch
  std::vector<char> reach_;       // broadcast scratch
};

}  // namespace sysgo::synth
