// Protocol auditor: a certified lower bound for a *concrete* systolic
// schedule via Theorem 4.1.  Every entry takes a CompiledSchedule, the one
// validated form (the caller compiles once).
//
// For each vertex x the schedule fixes the per-period activation pattern;
// Lemma 4.2/4.3 bound the local norm from the per-period left/right
// activation totals (half-duplex), or from cyclic gap sums and
// ‖A‖₂ <= √(‖A‖₁·‖A‖∞) (full-duplex).  The largest λ* with
// max_x bound_x(λ*) <= 1 then certifies (Theorem 4.1) that gossip under
// this schedule needs at least theorem41_round_bound(λ*, n) rounds.
//
// Because the audit uses each vertex's actual totals (L_x, R_x) rather than
// the worst-case ⌈s/2⌉/⌊s/2⌋ split, it can certify strictly more than the
// general e(s)·log n bound — the per-protocol refinement the paper's
// technique enables (see DESIGN.md, ablation 2).
//
// Activity classes.  A vertex's bound depends on nothing but its
// VertexActivity summary (and s, λ, mode), and the regular networks the
// paper studies have few distinct summaries — the bf/wbf/kautz/db
// colouring schedules at d = 2, D = 4..11 have at most 17, against up to
// 24,576 vertices.  Each audit therefore groups the vertices by equal
// summary once and evaluates every λ over the distinct summaries only.
// This is bit-identical to the per-vertex maximum: equal summaries go
// through the same vertex_norm_bound call and yield the same double, and a
// maximum over a multiset equals the maximum over its distinct values, so
// every norm-bound evaluation — hence the bisection, λ*, e and the round
// bound — is unchanged.  The worst vertex is the lowest-index vertex of
// the first worst class (classes are ordered by first occurrence), which
// is the lowest-index worst vertex.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "core/bounds.hpp"
#include "protocol/compiled.hpp"

namespace sysgo::core {

/// Per-vertex, per-period activation summary.  Ordered, so the audit can
/// group vertices with equal summaries.
struct VertexActivity {
  int left_rounds = 0;   // rounds of the period with an incoming activation
  int right_rounds = 0;  // rounds with an outgoing activation
  std::vector<int> active_rounds;  // full-duplex: rounds with any activation

  friend auto operator<=>(const VertexActivity&,
                          const VertexActivity&) = default;
};

/// Summaries for every vertex of a compiled period, from one walk over each
/// round's arc span (half duplex) or pair span (full duplex).
[[nodiscard]] std::vector<VertexActivity> vertex_activities(
    const protocol::CompiledSchedule& cs);

/// The certified per-vertex local-norm bound at λ: half-duplex uses
/// Lemma 4.3 with the vertex's (L, R) totals; full-duplex uses cyclic gap
/// sums with ‖A‖₂ <= √(‖A‖₁·‖A‖∞).  s is the schedule period.
[[nodiscard]] double vertex_norm_bound(const VertexActivity& activity, int s,
                                       double lambda, protocol::Mode mode);

/// Certified upper bound on ‖M(λ)‖ for this schedule (max over vertices of
/// the per-vertex local-norm bound, evaluated per activity class).
/// Increasing in λ.
[[nodiscard]] double audit_norm_bound(const protocol::CompiledSchedule& cs,
                                      double lambda);

struct AuditResult {
  double lambda_star = 0.0;  // largest λ with certified ‖M(λ)‖ <= 1
  double e_coeff = 0.0;      // 1/log2(1/λ*)
  int round_lower_bound = 0; // Theorem 4.1 round count at λ*
  int worst_vertex = -1;     // vertex attaining the norm bound at λ*

  /// False when no Theorem 4.1 certificate applies (period < 3); every
  /// field is then -1.
  [[nodiscard]] bool certified() const noexcept {
    return round_lower_bound >= 0;
  }
};

/// Run the audit.  The bound holds for *any* execution length of this
/// schedule that achieves gossip on an n-vertex network.  A period below 3
/// gets no certificate (all fields -1), the way core::lambda_star refuses
/// s < 3: there the norm bound stays below 1 for every λ < 1, so λ* would
/// sit at the bisection's upper end and the round count built from it is
/// not a lower bound (C6 full duplex at period 2 gossips in 3 rounds; it
/// would "certify" 4).  The activity classes are derived once and reused
/// across the whole λ bisection.
[[nodiscard]] AuditResult audit_schedule(const protocol::CompiledSchedule& cs);

/// Theorem 5.1 applied to a concrete schedule and a concrete separator:
/// given BFS-verified vertex sets V1, V2 at distance >= `distance` with
/// min(|V1|, |V2|) >= `min_size`, the proof of Theorem 5.1 yields, for any
/// λ with certified ‖M(λ)‖ <= 1, the smallest t satisfying
///
///   t·log2(1/λ) >= log2(c) − (dist−1)·log2(‖M(λ)‖bound)
///                  − log2(t − dist + 2) − log2(t).
///
/// Returns the best such t over λ.  Strictly stronger than audit_schedule
/// when the network has far-apart large sets (e.g. Butterfly levels).
struct SeparatorAuditResult {
  double lambda = 0.0;
  int round_lower_bound = 0;
};
[[nodiscard]] SeparatorAuditResult audit_schedule_with_separator(
    const protocol::CompiledSchedule& cs, int distance, std::size_t min_size);

}  // namespace sysgo::core
