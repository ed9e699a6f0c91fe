// Metal layer stack definitions (paper Table 3 / Fig 9).
//
// 2D      : M1 | local M2-3 | intermediate M4-6 | global M7-8
// T-MI    : MB1, M1 | local M2-6 | intermediate M7-9 | global M10-11
// T-MI+M  : MB1, M1 | local M2-5 | intermediate M6-10 | global M11-12
// G-MI    : the T-MI stack (stand-in for each tier's own local metal)
//
// MB1 lives on the bottom tier; the MIV connects MB1 to M1 through the
// inter-layer dielectric and the top-tier silicon.
#pragma once

#include <string>
#include <vector>

namespace m3d::tech {

enum class LayerLevel { kM1, kLocal, kIntermediate, kGlobal };

const char* to_string(LayerLevel level);

/// Integration style. k2D = conventional planar; kTMI = transistor-level
/// monolithic 3D (the paper's contribution); kTMIPlusM = the modified metal
/// stack of supplement S9 (2 extra local + 2 extra intermediate layers);
/// kGMI = gate-level monolithic 3D, the style the paper's Section 1
/// contrasts with T-MI: planar cells on two device tiers, inter-tier nets
/// through routing MIVs.
enum class Style { k2D, kTMI, kTMIPlusM, kGMI };

const char* to_string(Style style);

/// The cell library a flow style uses: planar cells (k2D) for 2D and G-MI,
/// folded cells (kTMI) for both T-MI stacks.
Style cell_style(Style style);

struct MetalLayer {
  std::string name;            // "MB1", "M1", "M2", ...
  int index = 0;               // position in the stack, 0 = lowest
  LayerLevel level = LayerLevel::kLocal;
  bool bottom_tier = false;    // true only for MB1
  bool horizontal = true;      // preferred routing direction
  double width_um = 0.0;       // drawn wire width
  double spacing_um = 0.0;     // minimum spacing
  double thickness_um = 0.0;   // metal thickness
  double unit_r_kohm = 0.0;    // resistance per um of wire (kOhm/um)
  double unit_c_ff = 0.0;      // capacitance per um of wire (fF/um)

  double pitch_um() const { return width_um + spacing_um; }
};

/// Cut between layer `index` and `index+1` of the stack.
struct CutLayer {
  double r_kohm = 0.0;  // single-via resistance
  double c_ff = 0.0;    // single-via capacitance
  bool is_miv = false;  // the monolithic inter-tier via (MB1 <-> M1)
};

struct MetalStack {
  Style style = Style::k2D;
  std::vector<MetalLayer> layers;
  std::vector<CutLayer> cuts;  // cuts.size() == layers.size() - 1

  int num_layers() const { return static_cast<int>(layers.size()); }
  const MetalLayer& layer(int i) const { return layers.at(static_cast<size_t>(i)); }
  /// Index of the first layer at `level`, or -1 if absent.
  int first_of(LayerLevel level) const;
  /// Number of layers at `level`.
  int count_of(LayerLevel level) const;
  /// Index of the layer with `name`, or -1.
  int find(const std::string& name) const;
};

}  // namespace m3d::tech
