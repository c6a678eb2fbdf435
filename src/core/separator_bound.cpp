#include "core/separator_bound.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/roots.hpp"

namespace sysgo::core {

SeparatorBoundResult separator_bound(double alpha, double ell, int s, Duplex duplex) {
  if (alpha <= 0.0 || ell <= 0.0)
    throw std::invalid_argument("separator_bound: need alpha, ell > 0");
  const double lam_star = lambda_star(s, duplex);
  const auto objective = [alpha, ell, s, duplex](double lam) {
    const double f = norm_bound_function(lam, s, duplex);
    return ell * (alpha - std::log2(f)) / std::log2(1.0 / lam);
  };
  // As λ -> 0 the objective tends to ell; the interesting region is
  // [tiny, λ*].  The objective is smooth and the default grid is dense
  // enough to isolate the single interior maximum.
  const auto max = linalg::maximize(objective, 1e-6, lam_star);
  return {max.value, max.x};
}

SeparatorBoundResult separator_bound(topology::Family family, int d, int s,
                                     Duplex duplex) {
  const auto params = separator::lemma31_params(family, d);
  return separator_bound(params.alpha, params.ell, s, duplex);
}

double diameter_coefficient(topology::Family family, int d) {
  // In each of the seven families Lemma 3.1's sets lie a diameter apart,
  // so the diameter is l·log2(n)·(1 − o(1)).
  if (!topology::family_has_separator_analysis(family))
    throw std::invalid_argument("diameter_coefficient: no analysis for " +
                                topology::family_name(family, d));
  return separator::lemma31_params(family, d).ell;
}

}  // namespace sysgo::core
