// Cyclic Jacobi eigenvalue iteration for symmetric matrices.
//
// An exact (to tolerance) dense eigensolver used to cross-validate the
// power-iteration norms: ‖M‖₂² is the largest eigenvalue of the symmetric
// MᵀM, which Jacobi computes with all-eigenvalue certainty (no danger of
// converging to a subdominant eigenpair).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace sysgo::linalg {

struct JacobiResult {
  std::vector<double> eigenvalues;  // descending order
  int sweeps = 0;
  bool converged = false;
};

/// Eigenvalues of a symmetric matrix.  Throws if m is not square/symmetric.
[[nodiscard]] JacobiResult jacobi_eigenvalues(const Matrix& m);

/// ‖M‖₂ via Jacobi on MᵀM — the slow, certain reference implementation.
[[nodiscard]] double operator_norm_exact(const Matrix& m);

}  // namespace sysgo::linalg
