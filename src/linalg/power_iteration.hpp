// Euclidean operator norm ‖M‖₂ and spectral radius via power iteration.
//
// The paper's machinery needs ‖M(λ)‖₂ = sqrt(ρ(MᵀM)) for non-negative
// matrices; for those, power iteration on MᵀM started from a positive vector
// converges to the Perron value.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace sysgo::linalg {

struct PowerIterationResult {
  double value = 0.0;        // converged estimate
  std::size_t iterations = 0;
  bool converged = false;
};

/// ‖M‖₂ of a dense matrix (any sign pattern is accepted; convergence is
/// guaranteed for non-negative matrices, which is all this library uses).
[[nodiscard]] PowerIterationResult operator_norm(const Matrix& m);

/// ‖M‖₂ of a sparse matrix.
[[nodiscard]] PowerIterationResult operator_norm(const SparseMatrix& m);

/// Spectral radius ρ(M) of a non-negative square dense matrix
/// (power iteration from the all-ones vector; Perron–Frobenius).
[[nodiscard]] PowerIterationResult spectral_radius_nonnegative(const Matrix& m);

}  // namespace sysgo::linalg
