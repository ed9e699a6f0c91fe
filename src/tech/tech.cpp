#include "tech/tech.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace m3d::tech {

const char* to_string(LayerLevel level) {
  switch (level) {
    case LayerLevel::kM1: return "M1";
    case LayerLevel::kLocal: return "local";
    case LayerLevel::kIntermediate: return "intermediate";
    case LayerLevel::kGlobal: return "global";
  }
  return "?";
}

const char* to_string(Style style) {
  switch (style) {
    case Style::k2D: return "2D";
    case Style::kTMI: return "T-MI";
    case Style::kTMIPlusM: return "T-MI+M";
    case Style::kGMI: return "G-MI";
  }
  return "?";
}

Style cell_style(Style style) {
  return style == Style::k2D || style == Style::kGMI ? Style::k2D
                                                     : Style::kTMI;
}

const char* to_string(Node node) {
  return node == Node::k45nm ? "45nm" : "7nm";
}

int MetalStack::first_of(LayerLevel level) const {
  for (const auto& l : layers) {
    if (l.level == level) return l.index;
  }
  return -1;
}

int MetalStack::count_of(LayerLevel level) const {
  int n = 0;
  for (const auto& l : layers) n += (l.level == level) ? 1 : 0;
  return n;
}

int MetalStack::find(const std::string& name) const {
  for (const auto& l : layers) {
    if (l.name == name) return l.index;
  }
  return -1;
}

NodeParams make_node_params(Node node) {
  NodeParams p;
  if (node == Node::k45nm) {
    // Defaults in the struct are the 45nm values (paper Table 6).
    p.node = Node::k45nm;
    // Resistivity constants are fitted so the published unit resistances of
    // Section 5 come out exactly: M2 = 3.57 Ohm/um, M8 = 0.188 Ohm/um.
    p.cu_resistivity_uohm_cm = 3.5;
    p.cu_resistivity_global_uohm_cm = 6.02;
  } else {
    p.node = Node::k7nm;
    p.transistor_type = "multi-gate";
    p.vdd_v = 0.7;
    p.lgate_drawn_nm = 11.0;
    p.ild_k = 2.2;
    p.m2_width_nm = 10.8;
    p.miv_diameter_nm = 10.8;
    p.ild_thickness_nm = 50.0;
    p.top_si_thickness_nm = 10.0;
    p.cell_height_um = 0.218;
    p.tmi_cell_height_um = 0.218 * 0.6;  // same -40% folding gain as 45nm
    // Fitted to Section 5: M2 = 638 Ohm/um, M8-class = 2.65 Ohm/um
    // (with the exact 7/45 geometry scale; ITRS quotes 15.02).
    p.cu_resistivity_uohm_cm = 15.13;
    p.cu_resistivity_global_uohm_cm = 2.06;
    p.anchor_local_c_ff_um = 0.153;
    p.anchor_global_c_ff_um = 0.095;
    p.nmos_drive_ua_um = 2228.0;  // ITRS 2011, Table 10
    p.itrs_year = 2025;
  }
  return p;
}

namespace {

// Wire resistance per um: R = rho * 1e-2 / (W * T) in Ohm/um with rho in
// uOhm*cm and W, T in um. Returned in kOhm/um.
double wire_unit_r_kohm(double rho_uohm_cm, double w_um, double t_um) {
  return rho_uohm_cm * 1e-2 / (w_um * t_um) / 1000.0;
}

// Interconnect geometry template for one level, in 45nm units (paper Table 3);
// the 7nm stack scales these by 0.156.
struct LevelGeom {
  double width_nm, spacing_nm, thickness_nm;
};

constexpr LevelGeom kGeomM1{70, 65, 130};
constexpr LevelGeom kGeomLocal{70, 70, 140};
constexpr LevelGeom kGeomInter{140, 140, 280};
constexpr LevelGeom kGeomGlobal{400, 400, 800};

const LevelGeom& geom_for(LayerLevel level) {
  switch (level) {
    case LayerLevel::kM1: return kGeomM1;
    case LayerLevel::kLocal: return kGeomLocal;
    case LayerLevel::kIntermediate: return kGeomInter;
    case LayerLevel::kGlobal: return kGeomGlobal;
  }
  return kGeomLocal;
}

// Unit capacitance per level, interpolated from the node's published anchor
// values (local M2-class and global M8-class). M1 and MB1 sit next to the
// devices and have slightly higher fringe to substrate; intermediate layers
// share the local layers' aspect ratio (T/S = 2) so they sit between the
// anchors. These blends are an engineering approximation; the paper only
// publishes the two anchors.
double unit_c_for(const NodeParams& p, LayerLevel level) {
  switch (level) {
    case LayerLevel::kM1: return 1.05 * p.anchor_local_c_ff_um;
    case LayerLevel::kLocal: return p.anchor_local_c_ff_um;
    case LayerLevel::kIntermediate:
      return 0.7 * p.anchor_local_c_ff_um + 0.3 * p.anchor_global_c_ff_um;
    case LayerLevel::kGlobal: return p.anchor_global_c_ff_um;
  }
  return p.anchor_local_c_ff_um;
}

}  // namespace

MetalStack build_stack(const NodeParams& params, Style style) {
  // Geometry scale factor relative to the 45nm Table 3 dimensions.
  const double s = (params.node == Node::k45nm) ? 1.0 : 7.0 / 45.0;

  // Level plan per Fig 9. Each entry: (name prefix start index, level, count).
  struct Plan {
    LayerLevel level;
    int count;
  };
  std::vector<Plan> plan;
  const bool has_mb1 = style != Style::k2D;
  switch (style) {
    case Style::k2D:
      plan = {{LayerLevel::kM1, 1},
              {LayerLevel::kLocal, 2},          // M2-3
              {LayerLevel::kIntermediate, 3},   // M4-6
              {LayerLevel::kGlobal, 2}};        // M7-8
      break;
    case Style::kTMI:
    case Style::kGMI:
      plan = {{LayerLevel::kM1, 1},
              {LayerLevel::kLocal, 5},          // M2-6
              {LayerLevel::kIntermediate, 3},   // M7-9
              {LayerLevel::kGlobal, 2}};        // M10-11
      break;
    case Style::kTMIPlusM:
      plan = {{LayerLevel::kM1, 1},
              {LayerLevel::kLocal, 4},          // M2-5
              {LayerLevel::kIntermediate, 5},   // M6-10
              {LayerLevel::kGlobal, 2}};        // M11-12
      break;
  }

  MetalStack stack;
  stack.style = style;
  int index = 0;
  auto push = [&](const std::string& name, LayerLevel level, bool bottom_tier) {
    const LevelGeom& g = geom_for(level);
    MetalLayer layer;
    layer.name = name;
    layer.index = index;
    layer.level = level;
    layer.bottom_tier = bottom_tier;
    // Preferred direction alternates; M1 and MB1 run horizontally (along the
    // cell rows).
    layer.horizontal = (index % 2) == (has_mb1 ? 1 : 0) ? false : true;
    if (name == "MB1" || name == "M1") layer.horizontal = true;
    layer.width_um = g.width_nm * s / 1000.0;
    layer.spacing_um = g.spacing_nm * s / 1000.0;
    layer.thickness_um = g.thickness_nm * s / 1000.0;
    const double rho = (level == LayerLevel::kGlobal)
                           ? params.cu_resistivity_global_uohm_cm
                           : params.cu_resistivity_uohm_cm;
    layer.unit_r_kohm = wire_unit_r_kohm(rho, layer.width_um, layer.thickness_um);
    layer.unit_c_ff = unit_c_for(params, level);
    stack.layers.push_back(layer);
    ++index;
  };

  if (has_mb1) push("MB1", LayerLevel::kM1, /*bottom_tier=*/true);
  int metal_num = 1;
  for (const auto& p : plan) {
    for (int i = 0; i < p.count; ++i) {
      // Appended, not "M" + to_string(...): that trips a false-positive
      // -Wrestrict in GCC 12 at -O3.
      std::string name = "M";
      name += std::to_string(metal_num);
      push(name, p.level, false);
      ++metal_num;
    }
  }
  // Fix alternating directions properly: even metal numbers vertical.
  for (auto& l : stack.layers) {
    if (l.name == "MB1") {
      l.horizontal = true;
      continue;
    }
    const int num = std::stoi(l.name.substr(1));
    l.horizontal = (num % 2) == 1;
  }

  // Cut layers.
  stack.cuts.resize(stack.layers.size() - 1);
  for (size_t i = 0; i + 1 < stack.layers.size(); ++i) {
    CutLayer cut;
    const LayerLevel upper = stack.layers[i + 1].level;
    if (has_mb1 && i == 0) {
      // The MIV: MB1 -> M1 through the top-tier silicon + ILD.
      const double d_um = params.miv_diameter_nm / 1000.0;
      const double len_um =
          (params.ild_thickness_nm + params.top_si_thickness_nm) / 1000.0;
      const double area_um2 = 3.14159265358979 * d_um * d_um / 4.0;
      cut.r_kohm =
          params.cu_resistivity_uohm_cm * 1e-2 * len_um / area_um2 / 1000.0;
      cut.c_ff = (params.node == Node::k45nm) ? 0.005 : 0.0008;
      cut.is_miv = true;
    } else {
      switch (upper) {
        case LayerLevel::kM1:
        case LayerLevel::kLocal:
          cut.r_kohm = 0.004;  // 4 Ohm local via
          cut.c_ff = 0.01;
          break;
        case LayerLevel::kIntermediate:
          cut.r_kohm = 0.002;
          cut.c_ff = 0.02;
          break;
        case LayerLevel::kGlobal:
          cut.r_kohm = 0.001;
          cut.c_ff = 0.05;
          break;
      }
      if (params.node == Node::k7nm) {
        // Smaller vias: resistance up ~8x (area down ~41x, length down 6.4x,
        // resistivity up ~4x for small cuts), capacitance scales with size.
        cut.r_kohm *= 8.0;
        cut.c_ff *= 0.156;
      }
    }
    stack.cuts[i] = cut;
  }
  return stack;
}

Tech::Tech(Node node, Style style)
    : params_(make_node_params(node)), stack_(build_stack(params_, style)) {}

int Tech::miv_cut_index() const {
  for (size_t i = 0; i < stack_.cuts.size(); ++i) {
    if (stack_.cuts[i].is_miv) return static_cast<int>(i);
  }
  return -1;
}

void Tech::scale_resistivity(LayerLevel level, double factor) {
  for (auto& layer : stack_.layers) {
    if (layer.level == level) layer.unit_r_kohm *= factor;
  }
}

double Tech::tracks_per_um(LayerLevel level) const {
  double tracks = 0.0;
  for (const auto& layer : stack_.layers) {
    if (layer.level == level && layer.pitch_um() > 0) {
      tracks += 1.0 / layer.pitch_um();
    }
  }
  return tracks;
}

}  // namespace m3d::tech
