// Objective evaluation for schedule synthesis.
//
// A candidate schedule's quality is its *measured* gossip time through the
// compiled simulator, tie-broken by period length, then active-link count
// (fewer links = the same time with less hardware).
//
// Infeasible candidates (incomplete within max_rounds) rank strictly below
// every feasible one, ordered among themselves by knowledge coverage so
// the annealer still has a gradient toward feasibility.
//
// Two entry points share one objective body (one round loop over a
// links-of-round source, so they produce identical objectives):
//
//   evaluate(cs, opts)       one-shot, from a compiled schedule (each
//                            restart winner's full-budget re-score)
//   DraftEvaluator           the annealer's hot path: evaluates a
//                            ScheduleDraft directly — drafts maintain the
//                            matching invariants by construction, so the
//                            per-move CompiledSchedule build (validation,
//                            canonicalization, partner tables, half a dozen
//                            allocations) is skipped, and the scratch
//                            knowledge matrix is reused across moves.
#pragma once

#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "synth/draft.hpp"

namespace sysgo::synth {

struct ObjectiveOptions {
  int max_rounds = 4096;  // simulation cap; beyond = infeasible
};

struct Objective {
  bool feasible = false;
  int rounds = -1;     // completion time, -1 when infeasible
  int period = 0;      // schedule period
  int links = 0;       // active links summed over the period
  int coverage = 0;    // items delivered at the end of the run (gradient
                       // signal for infeasible candidates)

  /// Annealing energy, lower = better: a scalarization the acceptance rule
  /// can take deltas of.  Feasible: rounds·1e6 + period·1e3 + links;
  /// infeasible: 1e12 − coverage·1e3 + period.  Approximate at the decimal
  /// boundaries (period >= 1000, links >= 1000) — ranking decisions use
  /// better(), which compares the criteria exactly.
  [[nodiscard]] double score() const noexcept;
};

/// Strict "a beats b" under the documented tie order, compared
/// lexicographically: feasible first; then rounds, period, links;
/// infeasible candidates by coverage (desc), then period.
[[nodiscard]] bool better(const Objective& a, const Objective& b) noexcept;

/// Evaluate a compiled schedule.
[[nodiscard]] Objective evaluate(const protocol::CompiledSchedule& cs,
                                 const ObjectiveOptions& opts);

/// Reusable draft evaluator: identical objectives to
/// evaluate(CompiledSchedule::compile(d.to_schedule(), g), opts) with no
/// per-call compile and no per-call allocation.  Drafts reject any move
/// that would break the matching property and only activate pool links, so
/// the compile-time validation is redundant on this path (property-tested
/// in tests/simulator/test_kernels.cpp).
class DraftEvaluator {
 public:
  /// Evaluate a draft from round 0.
  [[nodiscard]] Objective evaluate(const ScheduleDraft& draft,
                                   const ObjectiveOptions& opts);

  /// Rounds the last evaluate simulated: the completion round when it was
  /// feasible; else the cap, or fewer when the run stalled at a fixed point
  /// (see simulator::run_periodic).
  [[nodiscard]] int rounds_simulated() const noexcept { return simulated_; }

 private:
  simulator::GossipArena arena_;
  int simulated_ = 0;
};

}  // namespace sysgo::synth
