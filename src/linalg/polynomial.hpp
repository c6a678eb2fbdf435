// The paper's delay polynomials p_i(λ) and related geometric sums.
//
// p_i(λ) = 1 + λ² + λ⁴ + … + λ^{2i−2}   (i ≥ 1; p_0 ≡ 0 by convention —
// an empty activation block contributes nothing).
#pragma once

namespace sysgo::linalg {

/// p_i(λ) evaluated directly (numerically stable for 0 <= λ <= 1; exact
/// early exit once the terms stop changing the sum, which needs λ in that
/// range).
[[nodiscard]] double delay_polynomial(int i, double lambda) noexcept;

/// Closed form of lim_{i→∞} p_i(λ) = 1 / (1 − λ²) for |λ| < 1.
[[nodiscard]] double delay_polynomial_limit(double lambda) noexcept;

/// Geometric sum λ + λ² + … + λ^k (k ≥ 0; 0 for k = 0), the full-duplex
/// row-sum bound of Lemma 6.1 with k = s−1.  Same early exit as
/// delay_polynomial, for 0 <= λ <= 1.
[[nodiscard]] double geometric_sum(int k, double lambda) noexcept;

/// lim_{k→∞} geometric_sum = λ / (1 − λ) for |λ| < 1.
[[nodiscard]] double geometric_sum_limit(double lambda) noexcept;

}  // namespace sysgo::linalg
