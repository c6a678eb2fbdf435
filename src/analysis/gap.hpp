// Gap analysis: how loose is the Lemma 4.3 analytic bound on a concrete
// schedule?  For each vertex we extract its exact local delay matrix from
// the delay digraph (a window of w periods), compute its norm by power
// iteration, and compare with the per-vertex analytic bound the auditor
// certifies.  The DESIGN.md ablation "exact local norm vs Lemma 4.3".
// Both entries take a periodic CompiledSchedule (the window spans whole
// periods), compiled once by the caller.
#pragma once

#include <vector>

#include "protocol/compiled.hpp"

namespace sysgo::analysis {

struct VertexGapRow {
  int vertex = 0;
  int left_rounds = 0;   // per period
  int right_rounds = 0;  // per period
  double exact_norm = 0.0;
  double analytic_bound = 0.0;
  /// bound − exact (always >= 0 up to numerics).
  [[nodiscard]] double gap() const noexcept { return analytic_bound - exact_norm; }
};

/// Per-vertex exact-vs-analytic local norms at the given λ, over a window
/// of `periods` schedule periods.  Rows are sorted by descending analytic
/// bound (the certificate's binding vertices first).  Every vertex's in/out
/// activation rounds come from one pass over the window's arcs.
[[nodiscard]] std::vector<VertexGapRow> audit_gap_report(
    const protocol::CompiledSchedule& cs, double lambda, int periods = 4);

/// The exact local norm of one vertex over the window (0 when the vertex
/// never relays, or lies outside [0, n)).
[[nodiscard]] double exact_local_norm(const protocol::CompiledSchedule& cs,
                                      int vertex, double lambda, int periods = 4);

}  // namespace sysgo::analysis
