// Delay matrix M(λ) of a systolic protocol (Definition 3.4).
//
// M(λ) is indexed by delay-digraph vertices; the entry for arc
// ((x,y,i), (y,z,j)) is λ^{j−i}.  Key property (used by Theorem 4.1):
// (M(λ)^t)_{u,v} = Σ over t-arc dipaths from u to v of λ^{path length}.
#pragma once

#include "core/delay_digraph.hpp"
#include "linalg/sparse.hpp"

namespace sysgo::core {

/// Assemble M(λ) for 0 < λ < 1.
[[nodiscard]] linalg::SparseMatrix delay_matrix(const DelayDigraph& dg,
                                                double lambda);

/// ‖M(λ)‖₂ by power iteration (exact up to tolerance).  This is the
/// "measured" counterpart of the analytic Lemma 4.3 bound.
[[nodiscard]] double delay_matrix_norm(const DelayDigraph& dg, double lambda);

}  // namespace sysgo::core
