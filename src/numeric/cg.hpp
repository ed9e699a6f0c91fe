// Jacobi-preconditioned conjugate gradient on numeric::Csr, shared by every
// quadratic-solve call site (the placer's global solve today; any SPD
// system tomorrow).
//
// Determinism: every inner product folds left-to-right in index order and
// the SpMV is Csr::spmv (fixed row-major order), so the iterate sequence —
// and the converged x — is bit-identical run to run for a given matrix.
//
// Convergence is *relative*: the solver stops when the preconditioned
// residual norm-squared r'M⁻¹r falls below rel_tol² of its initial value.
// The legacy placer used a bare `rz > 1e-10`, an absolute test that
// silently tightens or loosens with problem size and coordinate scale;
// relative-to-start is scale-free.
#pragma once

#include <vector>

#include "numeric/csr.hpp"

namespace m3d::numeric {

struct CgOptions {
  int max_iters = 100;
  /// Stop when rz <= rel_tol^2 * rz0 (rz = r'M⁻¹r, rz0 its initial value).
  double rel_tol = 1e-6;
  /// The preconditioner is M = diag(A). Diagonal entries are clamped up to
  /// this before dividing, so empty/zero rows cannot produce infinities.
  double diag_floor = 1e-12;
};

struct CgResult {
  int iters = 0;              // iterations actually run
  double rel_residual = 0.0;  // sqrt(rz / rz0); 0 when rz0 == 0
  bool converged = false;     // hit the tolerance (vs the iteration cap)
};

/// Solves A x = rhs for symmetric positive (semi-)definite A, starting
/// from the caller's x (warm starts are part of the contract: the placer
/// seeds with the previous placement). x is updated in place.
CgResult cg_solve(const Csr& a, const std::vector<double>& rhs,
                  std::vector<double>& x, const CgOptions& opt);

}  // namespace m3d::numeric
