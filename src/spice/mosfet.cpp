#include "spice/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace m3d::spice {

double MosModel::floor_ma_um() const {
  return ioff_ma_um * std::exp(vth_v / subthreshold_swing_v);
}

double MosModel::ids(double vd, double vg, double vs, MosCache* cache) const {
  const double in[3] = {vd, vg, vs};
  if (cache != nullptr && cache->has_last &&
      std::memcmp(in, cache->last_in, sizeof(in)) == 0) {
    return cache->last_id;
  }
  // Map to device polarity: for PMOS, mirror all voltages.
  double vds = vd - vs;
  double vgs = vg - vs;
  double sign = 1.0;
  if (pmos) {
    vds = -vds;
    vgs = -vgs;
  }
  // The model is symmetric in source/drain: if vds < 0, swap terminals.
  if (vds < 0) {
    vgs = vgs - vds;  // gate-to-(new)source
    vds = -vds;
    sign = -sign;
  }
  const double vgt = vgs - vth_v;
  // Each transcendental below is one expression, evaluated directly or
  // through the cache's memo of the same expression.
  // Smooth saturation of the leakage term in vds (thermal voltage 26mV).
  const auto leak_of = [](double x) { return 1.0 - std::exp(-x / 0.026); };
  const double leak_sat =
      cache != nullptr ? cache->leak.get(vds, leak_of) : leak_of(vds);
  double id;
  if (vgt <= 0) {
    // Subthreshold slope anchored so that ioff is the current at vgs = 0.
    const auto sub_of = [this](double x) {
      return std::exp(x / subthreshold_swing_v);
    };
    id = ioff_ma_um *
         (cache != nullptr ? cache->sub.get(vgs, sub_of) : sub_of(vgs)) *
         leak_sat;
  } else {
    const auto drive_of = [this](double x) {
      return MosCache::Drive{std::pow(x, alpha), std::pow(x, alpha / 2.0)};
    };
    const MosCache::Drive p =
        cache != nullptr ? cache->drive.get(vgt, drive_of) : drive_of(vgt);
    const double idsat = k_ma_um * p.pow_alpha;
    const double vdsat = vdsat_coef * p.pow_half;
    if (vds >= vdsat) {
      id = idsat * (1.0 + lambda * (vds - vdsat));
    } else {
      const double x = vds / vdsat;
      id = idsat * x * (2.0 - x);
    }
    // Floor at the subthreshold value at vgt = 0 for continuity.
    id = std::max(id, (cache != nullptr ? cache->floor_ma_um : floor_ma_um()) *
                          leak_sat);
  }
  if (pmos) sign = -sign;
  const double result = sign * id;
  if (cache != nullptr) {
    cache->has_last = true;
    std::memcpy(cache->last_in, in, sizeof(in));
    cache->last_id = result;
  }
  return result;
}

MosModel ptm45_nmos() {
  MosModel m;
  m.pmos = false;
  m.vth_v = 0.47;
  m.alpha = 1.35;
  // Effective drive fitted so a characterized INV_X1 lands at the Nangate
  // scale of paper Table 2 (~17 ps at slew 7.5 ps / load 0.8 fF). This is an
  // *effective* constant for the whole switching trajectory, lower than the
  // ITRS peak-Idsat figure.
  m.k_ma_um = 0.26;
  m.vdsat_coef = 0.9;
  m.lambda = 0.06;
  m.cg_ff_um = 0.45;
  m.cd_ff_um = 0.33;
  m.ioff_ma_um = 5.5e-6;  // ~2.5 nW INV leakage at 1.1 V (paper Table 11)
  return m;
}

MosModel ptm45_pmos() {
  MosModel m = ptm45_nmos();
  m.pmos = true;
  m.vth_v = 0.45;
  // Hole mobility skew: roughly 0.5x the NMOS drive per um. Cell layouts
  // compensate with wider PMOS (as Nangate does).
  m.k_ma_um = 0.135;
  return m;
}

}  // namespace m3d::spice
