// Timing-closure optimization engine (paper Fig 1 "pre-route optimization" /
// "post-route optimization"): gate upsizing on negative slack, buffer
// insertion on long failing nets (pre-route), and — once timing is met —
// power recovery by downsizing and buffer removal under a slack margin.
//
// The power-recovery direction is the heart of the paper's story: the T-MI
// design, with its shorter wires, arrives at timing closure with more slack,
// so the optimizer removes more buffers and shrinks more cells, cutting
// *cell* power as well as net power (paper Section 4.1).
#pragma once

#include <functional>

#include "circuit/netlist.hpp"
#include "extract/parasitics.hpp"
#include "liberty/library.hpp"
#include "place/place.hpp"
#include "sta/sta.hpp"

namespace m3d::opt {

using ParasiticFn =
    std::function<extract::Parasitics(const circuit::Netlist&)>;

struct OptOptions {
  double clock_ns = 1.0;
  int rounds = 12;
  bool allow_buffering = true;     // topology changes: pre-route only
  double buffer_net_wl_um = 80.0;      // buffer failing nets longer than this
  double max_slew_ps = 200.0;          // max-transition design rule
  /// When set, inserted buffers are snapped onto the row grid inside this
  /// die (place::snap_to_row) so optimization preserves placement legality.
  const place::Die* die = nullptr;
};

struct OptReport {
  int upsized = 0;
  int downsized = 0;
  int buffers_added = 0;
  int buffers_removed = 0;
  double wns_ps = 0.0;
  bool met = false;
  /// The analysis of the returned netlist: the ParasiticFn's extraction of
  /// it and the STA on that extraction, equal to 0 ULP to a fresh
  /// extraction plus run_sta (sign-off uses them instead of re-timing).
  extract::Parasitics parasitics;
  sta::TimingResult timing;
};

OptReport optimize(circuit::Netlist* nl, const liberty::Library& lib,
                   const ParasiticFn& parasitics, const OptOptions& opt);

}  // namespace m3d::opt
