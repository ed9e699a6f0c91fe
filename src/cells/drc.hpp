// Design-rule checks for generated cell layouts: the lightweight
// verification pass that replaces a foundry DRC deck for this library's
// abstraction level. Checks device spacing against the poly pitch, MIV
// site spacing/diameter, tier assignment consistency, rail clearance, and
// bounds. Used by tests to keep the layout generator honest.
#pragma once

#include <string>
#include <vector>

#include "cells/layout.hpp"

namespace m3d::cells {

struct DrcViolation {
  std::string rule;
  std::string detail;
};

/// Runs all checks; empty result = clean.
std::vector<DrcViolation> check_layout(const CellLayout& layout,
                                       const tech::Tech& tech);

std::string drc_report(const std::vector<DrcViolation>& violations);

}  // namespace m3d::cells
