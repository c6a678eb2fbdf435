#include "linalg/jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sysgo::linalg {
namespace {

constexpr int kMaxSweeps = 64;
constexpr double kTolerance = 1e-13;  // off-diagonal Frobenius threshold

// Sum of squares of strictly-off-diagonal entries.
double off_diagonal_norm2(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (i != j) s += a(i, j) * a(i, j);
  return s;
}

// One Jacobi rotation zeroing a(p, q).
void rotate(Matrix& a, std::size_t p, std::size_t q) {
  const double apq = a(p, q);
  if (apq == 0.0) return;
  const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
  const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
  const double c = 1.0 / std::sqrt(t * t + 1.0);
  const double s = t * c;
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const double akp = a(k, p);
    const double akq = a(k, q);
    a(k, p) = c * akp - s * akq;
    a(k, q) = s * akp + c * akq;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double apk = a(p, k);
    const double aqk = a(q, k);
    a(p, k) = c * apk - s * aqk;
    a(q, k) = s * apk + c * aqk;
  }
}

}  // namespace

JacobiResult jacobi_eigenvalues(const Matrix& m) {
  if (m.rows() != m.cols())
    throw std::invalid_argument("jacobi_eigenvalues: matrix must be square");
  if (!m.is_symmetric(1e-9))
    throw std::invalid_argument("jacobi_eigenvalues: matrix must be symmetric");
  Matrix a = m;
  const std::size_t n = a.rows();
  JacobiResult res;
  if (n == 0) {
    res.converged = true;
    return res;
  }
  const double scale = std::max(1.0, a.frobenius_norm());
  for (int sweep = 1; sweep <= kMaxSweeps; ++sweep) {
    res.sweeps = sweep;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) rotate(a, p, q);
    if (std::sqrt(off_diagonal_norm2(a)) <= kTolerance * scale) {
      res.converged = true;
      break;
    }
  }
  res.eigenvalues.reserve(n);
  for (std::size_t i = 0; i < n; ++i) res.eigenvalues.push_back(a(i, i));
  std::sort(res.eigenvalues.rbegin(), res.eigenvalues.rend());
  return res;
}

double operator_norm_exact(const Matrix& m) {
  const auto gram = m.transpose().multiply(m);
  const auto eig = jacobi_eigenvalues(gram);
  if (eig.eigenvalues.empty()) return 0.0;
  return std::sqrt(std::max(0.0, eig.eigenvalues.front()));
}

}  // namespace sysgo::linalg
