// Fiduccia-Mattheyses min-cut bipartitioning of a netlist into two device
// tiers — the core step of *gate-level* monolithic integration (G-MI), the
// alternative 3D style the paper contrasts with T-MI (Section 1: "as in
// TSV-based 3D ICs, we may place planar cells in different layers and
// connect them using MIVs").
#pragma once

#include <vector>

#include "circuit/netlist.hpp"

namespace m3d::gmi {

struct PartitionResult {
  std::vector<int> tier_of;  // per InstId: 0 or 1 (-1 for dead)
  int cut_nets = 0;          // nets spanning both tiers (need routing MIVs)
  double area_imbalance = 0.0;
};

PartitionResult partition_tiers(const circuit::Netlist& nl);

/// Number of nets whose pins touch both tiers under `tier_of`.
int count_cut_nets(const circuit::Netlist& nl, const std::vector<int>& tier_of);

}  // namespace m3d::gmi
