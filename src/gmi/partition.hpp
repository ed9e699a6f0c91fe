// Gate-level monolithic 3D integration (G-MI), the alternative 3D style the
// paper contrasts with T-MI (Section 1: "as in TSV-based 3D ICs, we may
// place planar cells in different layers and connect them using MIVs").
// This module holds the two steps the style adds to flow::run_flow
// (tech::Style::kGMI): Fiduccia-Mattheyses min-cut bipartitioning of the
// netlist into two device tiers, and one routing MIV on every net that
// crosses them.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "extract/parasitics.hpp"
#include "tech/tech.hpp"

namespace m3d::gmi {

struct PartitionResult {
  std::vector<int> tier_of;  // per InstId: 0 or 1 (-1 for dead)
  int cut_nets = 0;          // nets spanning both tiers (need routing MIVs)
  double area_imbalance = 0.0;
};

PartitionResult partition_tiers(const circuit::Netlist& nl);

/// True when net `n` has pins on both tiers under `tier_of`. Clock and
/// sink-less nets never cross, and pins of dead instances (tier -1) or of
/// instances created after the partition (past the end of `tier_of`, e.g.
/// optimizer buffers) sit on no tier.
bool is_cut_net(const circuit::Netlist& nl, circuit::NetId n,
                const std::vector<int>& tier_of);

/// Number of nets whose pins touch both tiers under `tier_of`.
int count_cut_nets(const circuit::Netlist& nl, const std::vector<int>& tier_of);

/// Adds one MIV of `tch`'s stack (its MB1-M1 cut) to the wire parasitics
/// of every cut net; returns the number of nets stamped.
int add_cut_mivs(const circuit::Netlist& nl, const std::vector<int>& tier_of,
                 const tech::Tech& tch, extract::Parasitics* par);

}  // namespace m3d::gmi
