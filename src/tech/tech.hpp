// Technology node description: device parameters (Table 6/10), metal stack
// with unit RC (Table 3, paper Section 5), MIV model, and knobs for the
// sensitivity studies (Table 9 resistivity scaling).
#pragma once

#include "tech/layers.hpp"

namespace m3d::tech {

enum class Node { k45nm, k7nm };

const char* to_string(Node node);

/// Device & process parameters, from the paper's Table 6 and the ITRS rows of
/// Table 10. All lengths in um unless the name says otherwise.
struct NodeParams {
  Node node = Node::k45nm;
  const char* transistor_type = "planar bulk";
  double vdd_v = 1.1;
  double lgate_drawn_nm = 50.0;
  double ild_k = 2.5;                 // back-end-of-line dielectric constant
  double m2_width_nm = 70.0;
  double miv_diameter_nm = 70.0;
  double ild_thickness_nm = 110.0;    // inter-tier dielectric
  double top_si_thickness_nm = 30.0;  // top-tier silicon
  double cell_height_um = 1.4;        // 2D standard-cell row height
  double tmi_cell_height_um = 0.84;   // folded T-MI row height (-40%)
  double cu_resistivity_uohm_cm = 3.5;    // effective, local/intermediate
  double cu_resistivity_global_uohm_cm = 2.2;  // large wires: less size effect
  // Unit-capacitance anchors from the paper (Section 5): M2 and M8 class.
  double anchor_local_c_ff_um = 0.106;
  double anchor_global_c_ff_um = 0.100;
  // ITRS device row (Table 10).
  double nmos_drive_ua_um = 1210.0;
  int itrs_year = 2010;
};

NodeParams make_node_params(Node node);

/// A complete technology: node parameters + a metal stack with RC filled in.
class Tech {
 public:
  Tech(Node node, Style style);

  Node node() const { return params_.node; }
  Style style() const { return stack_.style; }
  const NodeParams& params() const { return params_; }
  const MetalStack& stack() const { return stack_; }

  bool is_3d() const { return stack_.style != Style::k2D; }
  /// Placement row pitch for this style: the folded T-MI cell height, the
  /// planar one in 2D, and half the planar one in G-MI, whose two tiers of
  /// planar rows interleave as half-height lanes in the XY plane.
  double row_height_um() const {
    if (stack_.style == Style::kGMI) return params_.cell_height_um / 2.0;
    return is_3d() ? params_.tmi_cell_height_um : params_.cell_height_um;
  }

  double unit_r_kohm(int layer) const { return stack_.layer(layer).unit_r_kohm; }
  double unit_c_ff(int layer) const { return stack_.layer(layer).unit_c_ff; }
  /// Resistance/capacitance of one via in the cut between layer i and i+1.
  const CutLayer& cut(int i) const { return stack_.cuts.at(static_cast<size_t>(i)); }
  /// The MIV cut index (between MB1 and M1), or -1 for 2D.
  int miv_cut_index() const;

  /// Scales wire resistivity of every layer at `level` by `factor`
  /// (supplement Table 9 study: 0.5 on local+intermediate).
  void scale_resistivity(LayerLevel level, double factor);

  /// Total routing track capacity per um of cross-section at a level:
  /// sum over layers at that level of 1/pitch (tracks per um).
  double tracks_per_um(LayerLevel level) const;

 private:
  NodeParams params_;
  MetalStack stack_;
};

/// Builds the Table 3 / Fig 9 metal stack for (node, style) with unit RC
/// computed from geometry and the node's calibrated resistivity/cap anchors.
MetalStack build_stack(const NodeParams& params, Style style);

}  // namespace m3d::tech
