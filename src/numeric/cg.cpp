#include "numeric/cg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "obs/mem.hpp"

namespace m3d::numeric {

CgResult cg_solve(const Csr& a, const std::vector<double>& rhs,
                  std::vector<double>& x, const CgOptions& opt) {
  assert(a.rows == a.cols);
  const size_t n = rhs.size();
  assert(static_cast<int>(n) == a.rows);
  x.resize(n);
  CgResult res;
  if (n == 0) {
    res.converged = true;
    return res;
  }

  obs::vector<double> inv_diag(n);
  for (size_t i = 0; i < n; ++i) {
    const int slot = a.diag_slot[i];
    const double d = slot >= 0 ? a.val[static_cast<size_t>(slot)] : 0.0;
    inv_diag[i] = 1.0 / std::max(d, opt.diag_floor);
  }
  auto precondition = [&](const obs::vector<double>& r, obs::vector<double>& z) {
    for (size_t i = 0; i < n; ++i) z[i] = r[i] * inv_diag[i];
  };

  obs::vector<double> r(n), z(n), p(n), ap(n);
  a.spmv(x.data(), ap.data());
  for (size_t i = 0; i < n; ++i) r[i] = rhs[i] - ap[i];
  precondition(r, z);
  for (size_t i = 0; i < n; ++i) p[i] = z[i];
  double rz = 0.0;
  for (size_t i = 0; i < n; ++i) rz += r[i] * z[i];
  const double rz0 = rz;
  const double threshold = opt.rel_tol * opt.rel_tol * rz0;

  int it = 0;
  for (; it < opt.max_iters && rz > threshold; ++it) {
    a.spmv(p.data(), ap.data());
    double pap = 0.0;
    for (size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
    if (pap <= 0) break;  // indefinite/rounding guard, same as legacy
    const double alpha = rz / pap;
    for (size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    precondition(r, z);
    double rz_new = 0.0;
    for (size_t i = 0; i < n; ++i) rz_new += r[i] * z[i];
    const double beta = rz_new / rz;
    rz = rz_new;
    for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  res.iters = it;
  res.converged = rz <= threshold;
  res.rel_residual = rz0 > 0.0 ? std::sqrt(std::max(rz, 0.0) / rz0) : 0.0;
  return res;
}

}  // namespace m3d::numeric
