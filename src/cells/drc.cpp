#include "cells/drc.hpp"

#include <algorithm>
#include <cmath>

#include "util/strf.hpp"

namespace m3d::cells {

std::vector<DrcViolation> check_layout(const CellLayout& layout,
                                       const tech::Tech& tech) {
  // Minimum MIV spacing (~site pitch) and device pitch at 45 nm, scaled
  // linearly to the node.
  constexpr double kMinMivSpacingUm = 0.09;
  constexpr double kMinDevicePitchUm = 0.13;
  std::vector<DrcViolation> out;
  const double scale =
      tech.node() == tech::Node::k7nm ? 7.0 / 45.0 : 1.0;
  const double min_miv = kMinMivSpacingUm * scale;
  const double min_pitch = kMinDevicePitchUm * scale;

  // Bounds: every shape inside the cell box.
  for (const auto& d : layout.devices) {
    if (d.x_um < -1e-9 || d.x_um > layout.width_um + 1e-9) {
      out.push_back({"device.bounds",
                     util::strf("device at x=%.3f outside [0, %.3f]", d.x_um,
                                layout.width_um)});
    }
    if (d.w_um <= 0) {
      out.push_back({"device.width", util::strf("non-positive width %.3f", d.w_um)});
    }
  }
  for (const auto& m : layout.mivs) {
    if (m.x_um < -1e-9 || m.x_um > layout.width_um + 1e-9) {
      out.push_back({"miv.bounds",
                     util::strf("MIV '%s' at x=%.3f outside cell", m.net.c_str(),
                                m.x_um)});
    }
  }

  // MIV spacing: no two MIVs closer than the site pitch.
  std::vector<double> xs;
  for (const auto& m : layout.mivs) xs.push_back(m.x_um);
  std::sort(xs.begin(), xs.end());
  for (size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] - xs[i - 1] < min_miv - 1e-9) {
      out.push_back({"miv.spacing",
                     util::strf("MIVs at %.3f and %.3f closer than %.3f",
                                xs[i - 1], xs[i], min_miv)});
    }
  }

  // Device pitch per row/tier: same-row devices must not overlap.
  for (int tier = 0; tier <= 1; ++tier) {
    for (bool pmos : {false, true}) {
      std::vector<std::pair<double, int>> row;  // (x, fingers)
      for (const auto& d : layout.devices) {
        if (d.tier == tier && d.pmos == pmos) row.push_back({d.x_um, d.fingers});
      }
      std::sort(row.begin(), row.end());
      for (size_t i = 1; i < row.size(); ++i) {
        const double need = min_pitch * row[i - 1].second;
        if (row[i].first - row[i - 1].first < need - 1e-9) {
          out.push_back(
              {"device.pitch",
               util::strf("tier %d %s devices at %.3f / %.3f closer than %.3f",
                          tier, pmos ? "PMOS" : "NMOS", row[i - 1].first,
                          row[i].first, need)});
        }
      }
    }
  }

  // Tier discipline: folded cells put PMOS on tier 0, NMOS on tier 1; flat
  // cells keep everything on tier 0. MIVs exist only when folded.
  for (const auto& d : layout.devices) {
    const int want = layout.folded ? (d.pmos ? 0 : 1) : 0;
    if (d.tier != want) {
      out.push_back({"tier.assignment",
                     util::strf("%s device on tier %d (expected %d)",
                                d.pmos ? "PMOS" : "NMOS", d.tier, want)});
    }
  }
  if (!layout.folded && !layout.mivs.empty()) {
    out.push_back({"miv.in_2d", "2D layout contains MIVs"});
  }
  if (layout.folded && layout.mivs.empty() && !layout.devices.empty()) {
    out.push_back({"miv.missing", "folded layout has no MIVs"});
  }

  // Every net extracted with non-negative parasitics.
  for (const auto& [net, p] : layout.nets) {
    if (p.r_kohm < 0 || p.c_ff_dielectric < 0 ||
        p.c_ff_conductor > p.c_ff_dielectric + 1e-12) {
      out.push_back({"extract.sanity", "net " + net + " has inconsistent RC"});
    }
  }
  return out;
}

std::string drc_report(const std::vector<DrcViolation>& violations) {
  if (violations.empty()) return "DRC clean\n";
  std::string out = util::strf("%zu DRC violations:\n", violations.size());
  for (const auto& v : violations) {
    out += "  [" + v.rule + "] " + v.detail + "\n";
  }
  return out;
}

}  // namespace m3d::cells
