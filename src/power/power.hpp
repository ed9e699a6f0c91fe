// Statistical power analysis (paper Section 2): switching activities are
// assigned to primary inputs (0.2) and sequential outputs (0.1), propagated
// through the logic via truth-table probabilities, and combined with
// extracted capacitances and NLDM internal-energy tables.
//
// total = cell internal + net switching + leakage;
// net switching splits into wire and pin parts (paper supplement S8).
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "extract/parasitics.hpp"
#include "sta/sta.hpp"

namespace m3d::power {

struct PowerOptions {
  double clock_ns = 1.0;
  double vdd_v = 1.1;
  double pi_activity = 0.2;   // toggles per cycle on primary inputs
  double seq_activity = 0.1;  // toggles per cycle on DFF outputs
};

struct PowerResult {
  double total_uw = 0.0;
  double cell_internal_uw = 0.0;
  double net_switching_uw = 0.0;
  double leakage_uw = 0.0;
  // Net switching split (wire vs cell-input-pin capacitance).
  double wire_uw = 0.0;
  double pin_uw = 0.0;
  double wire_cap_pf = 0.0;
  double pin_cap_pf = 0.0;
  // Activity bookkeeping.
  std::vector<double> net_activity;  // toggles per cycle per net
};

PowerResult run_power(const circuit::Netlist& nl, const extract::Parasitics& par,
                      const sta::TimingResult* timing, const PowerOptions& opt);

}  // namespace m3d::power
