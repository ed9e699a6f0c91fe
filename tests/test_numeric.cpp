// Tests for the shared numeric kernel layer (src/numeric): deterministic
// CSR assembly, ordered SpMV, preconditioned CG, and sparse LU with the
// symbolic/numeric split — including the 0-ULP assembly/SpMV contracts and
// the sparse-vs-dense agreement on real MNA matrices captured from a
// characterization circuit.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "exec/exec.hpp"
#include "liberty/characterize.hpp"
#include "numeric/cg.hpp"
#include "numeric/csr.hpp"
#include "numeric/lu.hpp"
#include "obs/mem.hpp"
#include "spice/circuit.hpp"
#include "spice/sim.hpp"
#include "tech/tech.hpp"
#include "util/rng.hpp"

namespace m3d {
namespace {

struct Trip {
  int r, c;
  double v;
};

/// Random triplet sequence with deliberate duplicates (~50% of adds hit an
/// existing site) and a guaranteed full diagonal.
std::vector<Trip> random_triplets(util::Rng& rng, int n, int adds) {
  std::vector<Trip> trips;
  for (int i = 0; i < n; ++i) {
    trips.push_back({i, i, rng.uniform(1.0, 2.0) * n});
  }
  for (int k = 0; k < adds; ++k) {
    if (!trips.empty() && rng.chance(0.5)) {
      const Trip& prev = trips[rng.below(trips.size())];
      trips.push_back({prev.r, prev.c, rng.uniform(-1.0, 1.0)});
    } else {
      trips.push_back({static_cast<int>(rng.below(static_cast<uint64_t>(n))),
                       static_cast<int>(rng.below(static_cast<uint64_t>(n))),
                       rng.uniform(-1.0, 1.0)});
    }
  }
  return trips;
}

TEST(Csr, AssemblyAndSpmvMatchOrderedDenseReferenceExactly) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(30));
    const std::vector<Trip> trips = random_triplets(rng, n, 4 * n);

    numeric::CsrBuilder b(n, n);
    for (const Trip& t : trips) b.add(t.r, t.c, t.v);
    const numeric::Csr a = b.build();

    // Reference: accumulating into a dense slot in triplet order performs
    // the same left-to-right duplicate sum the builder promises, so every
    // stored value must match to the bit.
    std::vector<double> dense(static_cast<size_t>(n) * n, 0.0);
    std::vector<bool> occupied(static_cast<size_t>(n) * n, false);
    for (const Trip& t : trips) {
      dense[static_cast<size_t>(t.r) * n + t.c] += t.v;
      occupied[static_cast<size_t>(t.r) * n + t.c] = true;
    }
    size_t nnz_ref = 0;
    for (bool o : occupied) nnz_ref += o ? 1 : 0;
    ASSERT_EQ(a.nnz(), nnz_ref);
    for (int i = 0; i < n; ++i) {
      for (int k = a.row_ptr[static_cast<size_t>(i)];
           k < a.row_ptr[static_cast<size_t>(i) + 1]; ++k) {
        const int j = a.col[static_cast<size_t>(k)];
        ASSERT_TRUE(occupied[static_cast<size_t>(i) * n + j]);
        // Bitwise: assembly is a pure function of the triplet sequence.
        ASSERT_EQ(a.val[static_cast<size_t>(k)],
                  dense[static_cast<size_t>(i) * n + j]);
      }
    }
    // diag_slot points at (i, i) for every row (diagonal seeded above).
    for (int i = 0; i < n; ++i) {
      ASSERT_GE(a.diag_slot[static_cast<size_t>(i)], 0);
      ASSERT_EQ(a.col[static_cast<size_t>(a.diag_slot[static_cast<size_t>(i)])],
                i);
    }

    // SpMV: fixed left-to-right per-row order == ascending-column dense
    // walk over occupied slots. Must agree to the last ULP.
    std::vector<double> x(static_cast<size_t>(n));
    for (double& xi : x) xi = rng.uniform(-1.0, 1.0);
    std::vector<double> y_csr;
    a.spmv(x, y_csr);
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int j = 0; j < n; ++j) {
        if (occupied[static_cast<size_t>(i) * n + j]) {
          sum += dense[static_cast<size_t>(i) * n + j] * x[static_cast<size_t>(j)];
        }
      }
      ASSERT_EQ(y_csr[static_cast<size_t>(i)], sum);
    }
  }
}

TEST(Csr, ParallelChunkedAssemblyIsByteIdenticalToSerial) {
  util::Rng rng(77);
  const int n = 40;
  const std::vector<Trip> trips = random_triplets(rng, n, 400);

  numeric::CsrBuilder serial(n, n);
  for (const Trip& t : trips) serial.add(t.r, t.c, t.v);
  const numeric::Csr ref = serial.build();

  // Per-chunk builders merged in chunk order (exec::parallel_reduce's
  // contract): identical matrices at any thread count, bit for bit.
  for (int threads : {1, 4}) {
    exec::ThreadPool pool(exec::ExecOptions{threads, "test_numeric"});
    const numeric::Csr par = exec::parallel_reduce(
                                 pool, trips.size(), numeric::CsrBuilder(n, n),
                                 [&](size_t lo, size_t hi) {
                                   numeric::CsrBuilder part(n, n);
                                   for (size_t k = lo; k < hi; ++k) {
                                     part.add(trips[k].r, trips[k].c,
                                              trips[k].v);
                                   }
                                   return part;
                                 },
                                 [](numeric::CsrBuilder acc,
                                    const numeric::CsrBuilder& part) {
                                   acc.merge(part);
                                   return acc;
                                 },
                                 /*grain=*/17)
                                 .build();
    ASSERT_EQ(par.row_ptr, ref.row_ptr) << threads << " threads";
    ASSERT_EQ(par.col, ref.col) << threads << " threads";
    ASSERT_EQ(par.val.size(), ref.val.size());
    for (size_t k = 0; k < ref.val.size(); ++k) {
      ASSERT_EQ(par.val[k], ref.val[k]) << threads << " threads, slot " << k;
    }
  }
}

/// Random SPD system: A = B B^T + n I (dense pattern).
numeric::Csr random_spd(util::Rng& rng, int n, std::vector<double>* dense_out) {
  std::vector<double> bmat(static_cast<size_t>(n) * n);
  for (double& v : bmat) v = rng.uniform(-1.0, 1.0);
  std::vector<double> dense(static_cast<size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = i == j ? static_cast<double>(n) : 0.0;
      for (int k = 0; k < n; ++k) {
        s += bmat[static_cast<size_t>(i) * n + k] *
             bmat[static_cast<size_t>(j) * n + k];
      }
      dense[static_cast<size_t>(i) * n + j] = s;
    }
  }
  numeric::CsrBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      b.add(i, j, dense[static_cast<size_t>(i) * n + j]);
    }
  }
  if (dense_out != nullptr) *dense_out = dense;
  return b.build();
}

TEST(Cg, MatchesDenseSolveOnSpdSystems) {
  util::Rng rng(11);
  std::vector<double> dense;
  const int n = 24;
  const numeric::Csr a = random_spd(rng, n, &dense);
  std::vector<double> rhs(static_cast<size_t>(n));
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);

  std::vector<double> x(static_cast<size_t>(n), 0.0);
  numeric::CgOptions opt;
  opt.max_iters = 500;
  opt.rel_tol = 1e-12;
  const numeric::CgResult res = numeric::cg_solve(a, rhs, x, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iters, 0);

  std::vector<double> ad = dense;
  std::vector<double> xd = rhs;
  ASSERT_TRUE(numeric::dense_lu_solve(ad, xd, n).ok());
  double scale = 0.0;
  for (double v : xd) scale = std::max(scale, std::abs(v));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                1e-8 * scale);
  }
}

TEST(Cg, EmptySystemConvergesTrivially) {
  const numeric::Csr a = numeric::CsrBuilder(0, 0).build();
  std::vector<double> rhs, x;
  const numeric::CgResult res = numeric::cg_solve(a, rhs, x, {});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iters, 0);
}

/// Captures real MNA Newton systems from a characterization-style circuit:
/// an INV_X1 cell with supply, ramped input, and output load.
std::vector<std::pair<numeric::Csr, std::vector<double>>> captured_systems() {
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const cells::CellSpec spec = cells::make_spec(cells::Func::kInv, 1);
  const cells::CellLayout layout = cells::layout_2d(spec, tch);
  spice::Circuit ckt = liberty::make_cell_circuit(
      spec, layout, cells::SiliconModel::kDielectric);
  const int out = ckt.find_node("Z");
  const int in = ckt.find_node("A");
  const int vdd = ckt.find_node("VDD");
  EXPECT_GE(out, 0);
  EXPECT_GE(in, 0);
  EXPECT_GE(vdd, 0);
  ckt.add_capacitor(out, 0, 3.2);
  ckt.add_source(vdd, spice::Pwl::dc(1.1));
  ckt.add_source(in, spice::Pwl::ramp(40.0, 30.0, 0.0, 1.1));

  spice::NewtonCapture cap;
  cap.max_systems = 6;
  spice::TranOptions topt;
  topt.t_stop_ps = 200.0;
  topt.dt_ps = 0.5;
  topt.capture = &cap;
  const spice::TranResult r = spice::simulate(ckt, topt);
  EXPECT_TRUE(r.converged) << r.fail_reason;
  std::vector<std::pair<numeric::Csr, std::vector<double>>> out_sys;
  for (size_t s = 0; s < cap.jacobians.size(); ++s) {
    out_sys.emplace_back(cap.jacobians[s], cap.rhs[s]);
  }
  return out_sys;
}

TEST(SparseLu, MatchesDenseSolveOnCapturedMnaMatrices) {
  const auto systems = captured_systems();
  ASSERT_FALSE(systems.empty());
  numeric::SparseLu lu;
  lu.analyze(systems[0].first);  // one symbolic analysis serves all steps
  for (const auto& [a, rhs] : systems) {
    const int n = a.rows;
    ASSERT_GT(n, 2);
    ASSERT_LT(a.nnz(), static_cast<size_t>(n) * n);  // genuinely sparse
    const numeric::FactorStatus st = lu.factor(a);
    ASSERT_TRUE(st.ok()) << st.to_string();
    std::vector<double> x;
    lu.solve(rhs, x);

    std::vector<double> dense(static_cast<size_t>(n) * n, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int k = a.row_ptr[static_cast<size_t>(i)];
           k < a.row_ptr[static_cast<size_t>(i) + 1]; ++k) {
        dense[static_cast<size_t>(i) * n + a.col[static_cast<size_t>(k)]] =
            a.val[static_cast<size_t>(k)];
      }
    }
    std::vector<double> xd = rhs;
    ASSERT_TRUE(numeric::dense_lu_solve(dense, xd, n).ok());
    double scale = 1e-12;
    for (double v : xd) scale = std::max(scale, std::abs(v));
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(x[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                  1e-7 * scale);
    }
  }
}

TEST(SparseLu, RefactorizationIsDeterministic) {
  const auto systems = captured_systems();
  ASSERT_FALSE(systems.empty());
  const numeric::Csr& a = systems.back().first;
  const std::vector<double>& rhs = systems.back().second;
  numeric::SparseLu lu1, lu2;
  lu1.analyze(a);
  lu2.analyze(a);
  ASSERT_TRUE(lu1.factor(a).ok());
  // Factor lu2 twice (a stale factorization must be fully overwritten).
  ASSERT_TRUE(lu2.factor(systems.front().first).ok());
  ASSERT_TRUE(lu2.factor(a).ok());
  std::vector<double> x1, x2;
  lu1.solve(rhs, x1);
  lu2.solve(rhs, x2);
  for (size_t i = 0; i < x1.size(); ++i) {
    ASSERT_EQ(x1[i], x2[i]);  // bitwise: fixed elimination + ordered sums
  }
}

TEST(SparseLu, ReportsEmptyMatrix) {
  numeric::CsrBuilder b(3, 3);
  for (int i = 0; i < 3; ++i) b.add(i, i, 0.0);
  const numeric::Csr a = b.build();
  numeric::SparseLu lu;
  lu.analyze(a);
  const numeric::FactorStatus st = lu.factor(a);
  EXPECT_EQ(st.failure, numeric::FactorFailure::kEmptyMatrix);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.to_string(), "ok");
}

TEST(SparseLu, ReportsSmallPivotOnSingularMatrix) {
  // Rank-1: elimination zeroes the second pivot exactly.
  numeric::CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 1.0);
  const numeric::Csr a = b.build();
  numeric::SparseLu lu;
  lu.analyze(a);
  const numeric::FactorStatus st = lu.factor(a);
  EXPECT_EQ(st.failure, numeric::FactorFailure::kSmallPivot);
  EXPECT_GE(st.row, 0);
  EXPECT_DOUBLE_EQ(st.scale, 1.0);

  std::vector<double> dense = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> rhs = {1.0, 2.0};
  EXPECT_EQ(numeric::dense_lu_solve(dense, rhs, 2).failure,
            numeric::FactorFailure::kSmallPivot);
}

TEST(SparseLu, ReportsSmallPivotOnEmptyRow) {
  numeric::CsrBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(2, 2, 3.0);
  b.add(0, 2, 1.0);  // row 1 has no entries at all
  const numeric::Csr a = b.build();
  numeric::SparseLu lu;
  lu.analyze(a);
  const numeric::FactorStatus st = lu.factor(a);
  EXPECT_EQ(st.failure, numeric::FactorFailure::kSmallPivot);
  EXPECT_EQ(st.row, 1);  // reported in the caller's (unpermuted) indexing
}

TEST(DenseLu, RelativeThresholdAcceptsWellConditionedTinyScale) {
  // Scale ~1e-20: the old absolute |pivot| < 1e-18 cutoff misclassified
  // this perfectly well-conditioned system as singular.
  std::vector<double> a = {2e-20, 1e-20, 1e-20, 3e-20};
  std::vector<double> b = {3e-20, 4e-20};
  const numeric::FactorStatus st = numeric::dense_lu_solve(a, b, 2);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_NEAR(b[0], 1.0, 1e-9);
  EXPECT_NEAR(b[1], 1.0, 1e-9);
}

TEST(Numeric, ScratchBuffersAreCountedByObsAllocator) {
  const auto systems = captured_systems();
  ASSERT_FALSE(systems.empty());
  const uint64_t before = obs::allocated_bytes();
  numeric::SparseLu lu;
  lu.analyze(systems[0].first);
  ASSERT_TRUE(lu.factor(systems[0].first).ok());
  EXPECT_GT(obs::allocated_bytes(), before);  // lval_/uval_/work_ counted
}

}  // namespace
}  // namespace m3d
