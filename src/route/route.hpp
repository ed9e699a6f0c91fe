// Congestion-driven global routing on a gcell grid with three routing
// levels (local / intermediate / global — paper Table 3 and Fig 10).
//
// Per net: MST topology over the pins, pattern (L-shape) routing per 2-pin
// connection with congestion lookahead, level assignment by connection
// length, and rip-up-and-reroute with A* maze fallback plus history costs.
// M1/MB1 are pin/cell layers and carry no global routing (the paper measures
// MB1 at 0.3% of wirelength).
//
// Capacities come from the Tech metal stack: T-MI's 3 extra local layers
// show up here as extra local tracks, and the T-MI+M stack (supplement S9)
// as a different local/intermediate split. An optional local-capacity derate
// models the MIV/MB1 blockages of supplement S5.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "place/place.hpp"
#include "route/schedule.hpp"
#include "tech/tech.hpp"

namespace m3d::route {

enum Level { kLocal = 0, kIntermediate = 1, kGlobal = 2, kNumLevels = 3 };

struct RouteOptions {
  int rrr_iters = 4;
  double local_blockage_frac = 0.0;  // capacity derate under cells (S5)
  uint64_t seed = 7;
};

struct NetRoute {
  std::array<double, kNumLevels> wl_um{};  // wirelength per level
  int vias = 0;
  // Per sink (parallel to Net::sinks): wirelength of the driver->sink path,
  // per level, for Elmore extraction.
  std::vector<std::array<double, kNumLevels>> sink_path_wl;

  double total_wl() const { return wl_um[0] + wl_um[1] + wl_um[2]; }
};

struct RouteResult {
  std::vector<NetRoute> nets;  // indexed by NetId
  double total_wl_um = 0.0;
  std::array<double, kNumLevels> wl_by_level{};
  long total_vias = 0;
  int overflow_edges = 0;
  double max_congestion = 0.0;
  bool routed = false;  // true when no edge overflows

  // Congestion view for snapshots (Fig 3 / Fig 10): per level, H and V edge
  // usage and capacity on the nx x ny grid.
  int nx = 0, ny = 0;
  double gcell_um = 0.0;
  std::array<std::vector<double>, kNumLevels> usage_h, usage_v;
  std::array<double, kNumLevels> cap_h{}, cap_v{};
};

RouteResult global_route(const circuit::Netlist& nl, const place::Die& die,
                         const tech::Tech& tech, const RouteOptions& opt);

/// The maze windows global_route schedules in its first rip-up-and-reroute
/// iteration, in its order: one per two-pin whose pattern route overflows.
/// Empty when nothing overflows. Lets tests and benches drive
/// schedule_batches with a real design's work list.
std::vector<Window> first_rrr_windows(const circuit::Netlist& nl, const place::Die& die,
                                      const tech::Tech& tech, const RouteOptions& opt);

}  // namespace m3d::route
