// ⟨α, l⟩-separators (Definition 3.5) and the explicit constructions of
// Lemma 3.1 for Butterfly, Wrapped Butterfly, de Bruijn and Kautz families.
//
// A family has an ⟨α, l⟩-separator when every member contains vertex sets
// V1, V2 with dist(V1, V2) = l·log n − o(log n) and
// min(|V1|, |V2|) ≥ 2^{α·l·log n − o(log n)}.  The pair (α, l) feeds
// Theorem 5.1; the explicit sets let us verify the construction by BFS.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "topology/topology.hpp"

namespace sysgo::separator {

/// The (α, l) parameters of Lemma 3.1 for one family.
struct SeparatorParams {
  double alpha = 0.0;
  double ell = 0.0;
};

/// Lemma 3.1 parameters: BF/WBF→ ⟨log d / 2, 2/log d⟩;
/// WBF ⟨2·log d / 3, 3/(2 log d)⟩; DB/K ⟨log d, 1/log d⟩ — the family's
/// topology::FamilyRow::lemma31 ratio.  Note α·l = 1 for every family.
[[nodiscard]] SeparatorParams lemma31_params(topology::Family f, int d);

/// Concrete separator sets for one member digraph.
struct Separator {
  std::vector<int> v1;
  std::vector<int> v2;
  SeparatorParams params;
  /// The distance the construction is designed to achieve (exact value for
  /// this (d, D), e.g. 2D for BF).  0 when not applicable.
  int designed_distance = 0;
};

/// Build the Lemma 3.1 sets for family f at dimension D.
///
/// For the shift networks (de Bruijn, Kautz) the paper's literal sets —
/// constrain positions h·j only — admit distance-1 pairs: one shift
/// misaligns the constrained positions of V1 against those of V2 and every
/// window lands on unconstrained digits.  We use a shift-robust
/// strengthening that constrains a boundary block on each side plus the
/// h-progression (see shift_robust_positions); any overlap offset then hits
/// a conflicting pair, restoring dist = D − O(√D) with sets still of size
/// 2^{α·l·log n − o(log n)}.  Butterfly-style networks rewrite digits in
/// place (no re-indexing), so the paper's sets are used as written.
[[nodiscard]] Separator build_separator(topology::Family f, int d, int D);

/// The constrained position set of the shift-robust construction:
/// [0, h) ∪ [D−h, D) ∪ {h·j < D}, ascending.
[[nodiscard]] std::vector<int> shift_robust_positions(int D, int h);

/// BFS verification of a separator against its digraph.
struct SeparatorCheck {
  int min_distance = 0;  // min over V1 x V2 of directed distance
  std::size_t size1 = 0;
  std::size_t size2 = 0;
};
[[nodiscard]] SeparatorCheck verify_separator(const graph::Digraph& g,
                                              const Separator& sep);

}  // namespace sysgo::separator
