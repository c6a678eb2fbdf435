#include "linalg/power_iteration.hpp"

#include <cmath>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace sysgo::linalg {
namespace {

constexpr std::size_t kMaxIterations = 20'000;
constexpr double kTolerance = 1e-12;  // relative change of the Rayleigh estimate

// Generic power iteration for x <- op(x) where op is a non-negative linear
// map; returns the dominant "gain" per application.
template <typename Op>
PowerIterationResult iterate(std::size_t dim, Op&& op) {
  PowerIterationResult res;
  if (dim == 0) {
    res.converged = true;
    return res;
  }
  std::vector<double> x(dim, 1.0);
  normalize(x);
  double prev = 0.0;
  for (std::size_t it = 1; it <= kMaxIterations; ++it) {
    std::vector<double> y = op(x);
    const double gain = norm2(y);
    res.iterations = it;
    if (gain == 0.0) {  // matrix annihilates the positive cone: norm 0
      res.value = 0.0;
      res.converged = true;
      return res;
    }
    scale(y, 1.0 / gain);
    x = std::move(y);
    res.value = gain;
    if (it > 1 && std::fabs(gain - prev) <= kTolerance * std::max(1.0, gain)) {
      res.converged = true;
      return res;
    }
    prev = gain;
  }
  return res;
}

}  // namespace

PowerIterationResult operator_norm(const Matrix& m) {
  // Iterate MᵀM; the gain converges to ‖M‖².
  auto res = iterate(m.cols(), [&m](const std::vector<double>& x) {
    return m.mul_transpose(m.mul(x));
  });
  res.value = std::sqrt(res.value);
  return res;
}

PowerIterationResult operator_norm(const SparseMatrix& m) {
  auto res = iterate(m.cols(), [&m](const std::vector<double>& x) {
    return m.mul_transpose(m.mul(x));
  });
  res.value = std::sqrt(res.value);
  return res;
}

PowerIterationResult spectral_radius_nonnegative(const Matrix& m) {
  return iterate(m.rows(),
                 [&m](const std::vector<double>& x) { return m.mul(x); });
}

}  // namespace sysgo::linalg
