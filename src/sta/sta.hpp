// Graph-based static timing analysis: levelized forward propagation of
// arrival times and slews through NLDM lookups plus Elmore net delays, and a
// backward required-time pass for per-instance slack. Sign-off timing for
// the iso-performance comparisons (paper Section 2).
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "extract/parasitics.hpp"

namespace m3d::sta {

/// Transition time assumed at primary inputs and at the ideal clock, ps.
constexpr double kInputSlewPs = 20.0;
constexpr double kClockSlewPs = 20.0;
/// Degradation of slew across a net: slew' = sqrt(slew^2 + (k*elmore)^2).
constexpr double kSlewDegradeK = 2.0;

struct StaOptions {
  double clock_ns = 1.0;
};

struct TimingResult {
  // Indexed by NetId: arrival/slew at the *driver output pin* of the net.
  std::vector<double> arrival_ps;
  std::vector<double> slew_ps;
  // Indexed by NetId: required time at the driver pin.
  std::vector<double> required_ps;
  // Indexed by InstId: worst slack over the instance's output nets.
  std::vector<double> inst_slack_ps;
  // Indexed by NetId: total load seen by the net's driver (wire + pins), fF.
  std::vector<double> load_ff;

  double wns_ps = 0.0;  // worst slack at timing endpoints (>= 0: timing met)
  double tns_ps = 0.0;  // total negative slack
  double critical_path_ps = 0.0;  // longest endpoint arrival
  circuit::NetId critical_endpoint = circuit::kInvalid;

  bool met() const { return wns_ps >= 0.0; }
};

/// Elmore-style net delay from driver to sink `k`.
double net_delay_ps(const extract::NetParasitics& par, size_t sink_idx,
                    double sink_pin_cap_ff);

TimingResult run_sta(const circuit::Netlist& nl, const extract::Parasitics& par,
                     const StaOptions& opt);

/// Hold (min-delay) analysis: propagates *earliest* arrivals and checks
/// every flop D pin against its hold requirement (same-edge capture).
/// Returns the worst hold slack (>= 0: no hold violations) and the count of
/// violating endpoints.
struct HoldResult {
  double worst_slack_ps = 0.0;
  int violations = 0;
};
HoldResult run_hold_check(const circuit::Netlist& nl,
                          const extract::Parasitics& par);

/// Human-readable critical path report (for examples/debugging).
std::string report_critical_path(const circuit::Netlist& nl,
                                 const TimingResult& timing);

}  // namespace m3d::sta
