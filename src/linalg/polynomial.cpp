#include "linalg/polynomial.hpp"

namespace sysgo::linalg {

// Both sums stop at the first term whose addition leaves the sum unchanged:
// for 0 <= lambda <= 1 every later term is no larger, and rounding is
// monotone, so none of them could change it either — the result is
// bit-identical to adding all the terms, in O(log(eps) / log(lambda))
// steps instead of O(s) (s reaches 2^30 in `sysgo bound`).

double delay_polynomial(int i, double lambda) noexcept {
  if (i <= 0) return 0.0;
  const double l2 = lambda * lambda;
  double term = 1.0;
  double sum = 0.0;
  for (int j = 0; j < i; ++j) {
    const double next = sum + term;
    if (next == sum) break;
    sum = next;
    term *= l2;
  }
  return sum;
}

double delay_polynomial_limit(double lambda) noexcept {
  return 1.0 / (1.0 - lambda * lambda);
}

double geometric_sum(int k, double lambda) noexcept {
  double term = lambda;
  double sum = 0.0;
  for (int j = 1; j <= k; ++j) {
    const double next = sum + term;
    if (next == sum) break;
    sum = next;
    term *= lambda;
  }
  return sum;
}

double geometric_sum_limit(double lambda) noexcept {
  return lambda / (1.0 - lambda);
}

}  // namespace sysgo::linalg
