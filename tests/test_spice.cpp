#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/mosfet.hpp"
#include "spice/sim.hpp"
#include "util/rng.hpp"

namespace m3d::spice {
namespace {

constexpr double kVdd = 1.1;

TEST(Pwl, InterpolatesAndClamps) {
  const Pwl p = Pwl::ramp(10.0, 20.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.at(10.0), 0.0);
  EXPECT_DOUBLE_EQ(p.at(20.0), 0.5);
  EXPECT_DOUBLE_EQ(p.at(100.0), 1.0);
}

TEST(Mosfet, NmosCutoffAndOn) {
  const MosModel n = ptm45_nmos();
  // Off: tiny leakage only.
  EXPECT_LT(n.ids(kVdd, 0.0, 0.0), 1e-4);
  EXPECT_GT(n.ids(kVdd, 0.0, 0.0), 0.0);
  // On: strong current, drain -> source positive.
  EXPECT_GT(n.ids(kVdd, kVdd, 0.0), 0.01);
}

TEST(Mosfet, PmosPullUpCurrentEntersDrain) {
  const MosModel p = ptm45_pmos();
  // Source at VDD, gate low, drain low: current flows into the drain
  // (negative by our drain->source sign convention).
  EXPECT_LT(p.ids(0.0, 0.0, kVdd), -0.01);
  // Gate high: off.
  EXPECT_NEAR(p.ids(0.0, kVdd, kVdd), 0.0, 1e-4);
}

TEST(Mosfet, SymmetricInSourceDrainSwap) {
  const MosModel n = ptm45_nmos();
  const double i_fwd = n.ids(1.0, kVdd, 0.2);
  const double i_rev = n.ids(0.2, kVdd, 1.0);
  EXPECT_NEAR(i_fwd, -i_rev, 1e-9);
}

TEST(Mosfet, MonotoneInVgs) {
  const MosModel n = ptm45_nmos();
  double prev = 0.0;
  for (double vg = 0.0; vg <= kVdd; vg += 0.05) {
    const double i = n.ids(kVdd, vg, 0.0);
    EXPECT_GE(i, prev - 1e-12) << "vg=" << vg;
    prev = i;
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Operating region of `m` at (vd, vg, vs), mirroring the model's own
// polarity and source/drain mapping.
enum Region { kCutoff, kSubthreshold, kLinear, kSaturation, kNumRegions };

Region region_of(const MosModel& m, double vd, double vg, double vs) {
  double vds = vd - vs;
  double vgs = vg - vs;
  if (m.pmos) {
    vds = -vds;
    vgs = -vgs;
  }
  if (vds < 0) {
    vgs -= vds;
    vds = -vds;
  }
  const double vgt = vgs - m.vth_v;
  if (vgt <= 0) return vgs <= 0 ? kCutoff : kSubthreshold;
  return vds < m.vdsat_coef * std::pow(vgt, m.alpha / 2.0) ? kLinear
                                                           : kSaturation;
}

// MosCache oracle: runs the Newton loop's evaluation pattern (operating
// point, repeats, +/-1e-5 probes of each terminal) through one cache per
// device and requires every result to equal uncached ids() to 0 ULP.
TEST(Mosfet, CachedEvaluationMatchesIdsBitwise) {
  constexpr double kEps = 1e-5;
  util::Rng rng(0x5eedca4e);
  int checked = 0;
  int swapped = 0;
  int negative_zero = 0;  // results that are -0.0
  int regions[kNumRegions] = {};
  for (const MosModel& m : {ptm45_nmos(), ptm45_pmos()}) {
    MosCache cache(m);
    auto check = [&](double vd, double vg, double vs) {
      const double want = m.ids(vd, vg, vs);
      const double got = m.ids(vd, vg, vs, &cache);
      ASSERT_TRUE(same_bits(want, got))
          << (m.pmos ? "pmos" : "nmos") << " ids(" << vd << ", " << vg
          << ", " << vs << "): cached " << got << " vs " << want;
      ++regions[region_of(m, vd, vg, vs)];
      if ((m.pmos ? vs - vd : vd - vs) < 0) ++swapped;
      if (want == 0.0 && std::signbit(want)) ++negative_zero;
      ++checked;
    };
    // Hand-picked points (each region, both rails, vds of zero, -0.0
    // terminals), then random points over and beyond the rails. Negating a
    // terminal reaches vds < 0 and turns 0.0 into -0.0.
    std::vector<std::vector<double>> points = {
        {kVdd, 0.0, 0.0},  {kVdd, 0.3, 0.0},  {0.05, kVdd, 0.0},
        {kVdd, kVdd, 0.0}, {0.0, 0.0, kVdd},  {0.0, kVdd, kVdd},
        {0.2, kVdd, 1.0},  {1.0, 0.8, 0.2},   {0.0, kVdd, 0.0},
        {-0.0, kVdd, 0.0}, {0.0, kVdd, -0.0}, {-0.0, -0.0, -0.0},
        {0.0, 0.0, 0.0},   {kVdd, -0.0, kVdd}, {0.5, 0.5, 0.5}};
    for (int i = 0; i < 400; ++i) {
      points.push_back({rng.uniform(-0.2, 1.3), rng.uniform(-0.2, 1.3),
                        rng.uniform(-0.2, 1.3)});
    }
    for (const auto& p : points) {
      const double vd = p[0], vg = p[1], vs = p[2];
      for (double e : {kEps, -kEps}) {
        check(vd, vg, vs);
        check(vd, vg, vs);  // whole-triple repeat
        check(vd + e, vg, vs);
        check(vd, vg + e, vs);
        check(vd, vg, vs + e);
        check(vd, vg, vs);  // operating point again after the probes
        check(-vd, vg, vs);
        check(vd, vg, -vs);
      }
    }
  }
  EXPECT_GT(checked, 10000);
  EXPECT_GT(swapped, 100);
  EXPECT_GT(negative_zero, 0);
  for (int r = 0; r < kNumRegions; ++r) {
    EXPECT_GT(regions[r], 100) << "region " << r;
  }
}

TEST(Sim, RcChargeMatchesAnalytic) {
  // 1 kOhm from a stepped source to node out, 10 fF to ground: tau = 10 ps.
  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  c.add_resistor(in, out, 1.0);
  c.add_capacitor(out, 0, 10.0);
  c.add_source(in, Pwl::ramp(0.0, 0.1, 0.0, 1.0));
  TranOptions opt;
  opt.t_stop_ps = 100.0;
  opt.dt_ps = 0.05;
  opt.probes = {out};
  const TranResult r = simulate(c, opt);
  ASSERT_TRUE(r.converged);
  // After 3 tau ~ 30ps: v = 1 - e^-3 = 0.9502.
  const auto& w = r.waveform(out);
  size_t idx = 0;
  while (idx < r.time_ps.size() && r.time_ps[idx] < 30.0) ++idx;
  EXPECT_NEAR(w[idx], 0.950, 0.01);
  // 63% point near tau = 10ps.
  const double t63 = cross_time(r.time_ps, w, 0.632, 0.0, true);
  EXPECT_NEAR(t63, 10.0, 1.0);
}

TEST(Sim, RcEnergyFromSourceIsCV2) {
  // Charging C through R from a step consumes C*V^2 from the source
  // (half stored, half dissipated).
  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  c.add_resistor(in, out, 1.0);
  c.add_capacitor(out, 0, 10.0);
  c.add_source(in, Pwl::ramp(0.0, 1.0, 0.0, 1.0));
  TranOptions opt;
  opt.t_stop_ps = 200.0;
  opt.dt_ps = 0.02;
  const TranResult r = simulate(c, opt);
  EXPECT_NEAR(r.source_energy_fj.at(in), 10.0, 0.3);  // C*V^2 = 10 fJ
}

Circuit make_inverter(double in_slew_ps, double load_ff, int* out_node,
                      int* vdd_node, int* in_node) {
  Circuit c;
  const int vdd = c.node("vdd");
  const int in = c.node("in");
  const int out = c.node("out");
  // Nangate INV_X1-like sizes: PMOS 0.63 um, NMOS 0.415 um.
  c.add_mosfet(out, in, vdd, 0.63, ptm45_pmos());
  c.add_mosfet(out, in, 0, 0.415, ptm45_nmos());
  c.add_capacitor(out, 0, load_ff);
  c.add_source(vdd, Pwl::dc(kVdd));
  c.add_source(in, Pwl::ramp(50.0, in_slew_ps, 0.0, kVdd));
  *out_node = out;
  *vdd_node = vdd;
  *in_node = in;
  return c;
}

TEST(Sim, InverterSwitchesRailToRail) {
  int out, vdd, in;
  Circuit c = make_inverter(7.5, 0.8, &out, &vdd, &in);
  TranOptions opt;
  opt.t_stop_ps = 300.0;
  opt.dt_ps = 0.1;
  opt.probes = {out};
  const TranResult r = simulate(c, opt);
  ASSERT_TRUE(r.converged);
  const auto& w = r.waveform(out);
  EXPECT_NEAR(w.front(), kVdd, 0.02);  // input low -> output high
  EXPECT_NEAR(w.back(), 0.0, 0.02);    // input high -> output low
}

// The calibration target: paper Table 2 fast case reports INV delay 17.2 ps
// at input slew 7.5 ps, load 0.8 fF (including ~0.36 fF internal parasitics
// which the bare schematic here lacks, so we allow a generous band).
TEST(Sim, InverterDelayNearNangateScale) {
  int out, vdd, in;
  Circuit c = make_inverter(7.5, 1.2, &out, &vdd, &in);
  TranOptions opt;
  opt.t_stop_ps = 300.0;
  opt.dt_ps = 0.05;
  opt.probes = {out, in};
  const TranResult r = simulate(c, opt);
  const double t_in = cross_time(r.time_ps, r.waveform(in), kVdd / 2, 0.0, true);
  const double t_out =
      cross_time(r.time_ps, r.waveform(out), kVdd / 2, 0.0, false);
  const double delay = t_out - t_in;
  EXPECT_GT(delay, 5.0);
  EXPECT_LT(delay, 40.0);
}

TEST(Sim, InverterDelayIncreasesWithLoad) {
  auto delay_at = [](double load) {
    int out, vdd, in;
    Circuit c = make_inverter(20.0, load, &out, &vdd, &in);
    TranOptions opt;
    opt.t_stop_ps = 600.0;
    opt.dt_ps = 0.1;
    opt.probes = {out, in};
    const TranResult r = simulate(c, opt);
    const double t_in =
        cross_time(r.time_ps, r.waveform(in), kVdd / 2, 0.0, true);
    const double t_out =
        cross_time(r.time_ps, r.waveform(out), kVdd / 2, 0.0, false);
    return t_out - t_in;
  };
  const double d1 = delay_at(0.8);
  const double d2 = delay_at(3.2);
  const double d3 = delay_at(12.8);
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  // Roughly linear in load once load dominates: quadruple load from 3.2 to
  // 12.8 should much more than double the delay.
  EXPECT_GT(d3, 2.0 * d2);
}

TEST(Sim, InverterEnergyScalesWithLoad) {
  auto energy_of = [](double load) {
    int out, vdd, in;
    Circuit c = make_inverter(7.5, load, &out, &vdd, &in);
    TranOptions opt;
    opt.t_stop_ps = 400.0;
    opt.dt_ps = 0.1;
    // Falling output transition consumes ~0 from VDD; add a second rising
    // transition via the input returning low.
    const TranResult r = simulate(c, opt);
    return r.source_energy_fj.at(vdd);
  };
  // Falling-output transition draws little energy; compare crowbar-only.
  const double e_small = energy_of(0.8);
  const double e_large = energy_of(12.8);
  // Both should be small and close (output falls: load discharges to gnd).
  EXPECT_LT(std::abs(e_large - e_small), 3.0);
}

TEST(Sim, MeasureSlewOnRamp) {
  // A pure ramp 0->1 V over 60 ps has 20-80 interval 36 ps -> slew 60 ps.
  std::vector<double> t, v;
  for (int i = 0; i <= 100; ++i) {
    t.push_back(i);
    v.push_back(std::min(1.0, i / 60.0));
  }
  EXPECT_NEAR(measure_slew(t, v, 1.0, true), 60.0, 2.0);
}

TEST(Sim, LeakageCurrentFlowsWhenIdle) {
  int out, vdd, in;
  Circuit c = make_inverter(7.5, 1.0, &out, &vdd, &in);
  TranOptions opt;
  opt.t_stop_ps = 40.0;  // before the input transition at 50 ps
  opt.dt_ps = 0.2;
  const TranResult r = simulate(c, opt);
  const double i_avg = r.source_avg_current_ma.at(vdd);
  EXPECT_GT(i_avg, 0.0);
  EXPECT_LT(i_avg, 1e-4);  // leakage scale, not switching scale
}

}  // namespace
}  // namespace m3d::spice
