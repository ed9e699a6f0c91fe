// Unit conventions used throughout the library.
//
//   length      : micron (um)
//   time        : nanosecond (ns)
//   capacitance : femtofarad (fF)
//   resistance  : kiloohm (kOhm)        -> R*C in kOhm*fF = ps = 1e-3 ns
//   energy      : femtojoule (fJ)
//   power       : microwatt (uW)
//   voltage     : volt (V)
//   current     : microampere (uA)      -> V/kOhm = mA; we store uA = 1e3*V/kOhm
//
// The (kOhm, fF, V) system is self-consistent for circuit simulation with
// time in ps: I = C dV/dt gives fF*V/ps = mA. The spice module documents its
// own internal scaling; everything outside it uses the units above.
#pragma once

namespace m3d::util {

// Length.
constexpr double kNmPerUm = 1000.0;
constexpr double um_from_nm(double nm) { return nm / kNmPerUm; }
constexpr double nm_from_um(double um) { return um * kNmPerUm; }

// Derived: delay of R (kOhm) times C (fF) is R*C picoseconds.
constexpr double ps_from_kohm_ff(double r_kohm, double c_ff) {
  return r_kohm * c_ff;
}

}  // namespace m3d::util
