// Compact MOSFET model: Sakurai-Newton alpha-power law with channel-length
// modulation and a simple exponential subthreshold term. This replaces the
// proprietary PTM SPICE decks the paper characterizes with; it reproduces the
// slew/load trends that matter for NLDM characterization.
//
// Unit system (shared with the whole spice module):
//   V in volts, R in kOhm, C in fF, t in ps, I in mA.
// These are consistent: V/kOhm = mA and fF*V/ps = mA.
#pragma once

#include <cstdint>
#include <cstring>

namespace m3d::spice {

struct MosCache;

struct MosModel {
  bool pmos = false;
  double vth_v = 0.47;       // threshold magnitude
  double alpha = 1.35;       // velocity-saturation index
  double k_ma_um = 0.26;     // drive: Idsat = k * W(um) * (Vgs-Vth)^alpha
  double vdsat_coef = 0.9;   // Vdsat = vdsat_coef * (Vgs-Vth)^(alpha/2)
  double lambda = 0.06;      // channel-length modulation (1/V)
  double cg_ff_um = 0.45;    // gate capacitance per um of width
  double cd_ff_um = 0.33;    // drain/source diffusion cap per um of width
  double ioff_ma_um = 2.4e-6;  // off-state leakage per um at Vgs=0,Vds=Vdd
  double subthreshold_swing_v = 0.1;  // exponential slope (per decade/ln10)

  /// Drain current for terminal voltages (drain, gate, source) measured
  /// against ground, with the device's own polarity handled internally.
  /// Positive current flows drain -> source for NMOS (source -> drain
  /// internally for PMOS, reported with sign so that current always leaves
  /// the drain node for NMOS pull-down and enters it for PMOS pull-up).
  ///
  /// `cache`, when given, must have been built for this model; it only
  /// skips work whose inputs repeat bit for bit, so the result is bitwise
  /// the uncached one (see MosCache).
  double ids(double vd, double vg, double vs, MosCache* cache = nullptr) const;

  /// ioff * exp(vth / S): the subthreshold current at vgt = 0 per unit
  /// leak_sat, which floors the above-threshold current.
  double floor_ma_um() const;
};

/// Two-slot memo of a pure function of one double, keyed on the argument's
/// exact bits. Equal bits give the function equal inputs, so a hit returns
/// bitwise the value a fresh call would; ±0.0 and NaN payloads are distinct
/// keys. A miss overwrites the slot filled longer ago.
template <class V>
struct ExactMemo {
  uint64_t key[2] = {0, 0};
  V val[2] = {};
  int filled = 0;  // slots [0, filled) hold values
  int next = 0;    // slot the next miss overwrites

  template <class F>
  V get(double x, F f) {
    uint64_t k = 0;
    std::memcpy(&k, &x, sizeof(k));
    if (filled > 0 && key[0] == k) return val[0];
    if (filled > 1 && key[1] == k) return val[1];
    key[next] = k;
    val[next] = f(x);
    const V v = val[next];
    if (filled < 2) ++filled;
    next ^= 1;
    return v;
  }
};

/// Per-device evaluation cache for MosModel::ids. A Newton step evaluates
/// each device at its operating point and at a +eps probe of each terminal;
/// the probes share exact sub-arguments with the operating point (the drain
/// probe keeps vgs, the gate probe keeps vds), and quiescent devices repeat
/// their whole terminal triple. Every entry is keyed on the exact bits of
/// the argument it was computed from and holds the one model expression's
/// result, so a cached evaluation equals MosModel::ids without a cache to
/// 0 ULP.
struct MosCache {
  explicit MosCache(const MosModel& m) : floor_ma_um(m.floor_ma_um()) {}

  struct Drive {
    double pow_alpha = 0.0;  // vgt^alpha
    double pow_half = 0.0;   // vgt^(alpha/2)
  };

  bool has_last = false;
  double last_in[3] = {};  // last (vd, vg, vs), compared bytewise
  double last_id = 0.0;    // ids at last_in
  ExactMemo<double> leak;  // vds -> 1 - exp(-vds / 0.026)
  ExactMemo<double> sub;   // vgs -> exp(vgs / S)
  ExactMemo<Drive> drive;  // vgt -> its two powers
  double floor_ma_um;      // MosModel::floor_ma_um()
};

/// 45nm bulk NMOS/PMOS calibrated so that our characterized INV/NAND2/MUX2/DFF
/// land near the paper's Table 2 numbers (see tests/test_spice.cpp).
MosModel ptm45_nmos();
MosModel ptm45_pmos();

}  // namespace m3d::spice
