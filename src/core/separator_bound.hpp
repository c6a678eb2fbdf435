// Topology-refined lower bounds (Theorem 5.1 and its full-duplex analogue,
// Section 6): for a family with an ⟨α, l⟩-separator,
//
//   e(s) = max over 0 < λ < 1 with F(λ, s) <= 1 of
//          l · (α − log2 F(λ, s)) / log2(1/λ),
//
// where F is the mode's norm-bound function.  Since α·l = 1 for every
// Lemma 3.1 family, the boundary value at F(λ)=1 recovers the general e(s);
// interior maxima give the improved entries of Figs. 5, 6, 8.
#pragma once

#include "core/bounds.hpp"
#include "separator/separator.hpp"

namespace sysgo::core {

struct SeparatorBoundResult {
  double e = 0.0;       // the bound coefficient of log2(n)
  double lambda = 0.0;  // the maximizing λ
};

/// Theorem 5.1 coefficient for separator parameters (α, l), period s
/// (kUnboundedPeriod for non-systolic) and duplex mode.
[[nodiscard]] SeparatorBoundResult separator_bound(double alpha, double ell, int s,
                                                   Duplex duplex);

/// Convenience: look up Lemma 3.1 (α, l) for the family and evaluate.
[[nodiscard]] SeparatorBoundResult separator_bound(topology::Family family, int d,
                                                   int s, Duplex duplex);

/// Diameter coefficient c such that diam = c·log2(n)·(1 − o(1)) for the
/// family (the trivial lower bound the paper's Fig. 6 quotes as "diam."
/// where it beats the matrix bound): the Lemma 3.1 l, i.e. BF/WBF→
/// 2/log d, WBF 1.5/log d, DB/K 1/log d.
[[nodiscard]] double diameter_coefficient(topology::Family family, int d);

}  // namespace sysgo::core
