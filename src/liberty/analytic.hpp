// The analytic NLDM library (store provider id "fixture"): closed-form
// tables with the shape, not the values, of the characterized one. It
// builds in microseconds and runs no SPICE, so unit tests, the profiler
// and the perf gates start instantly and are reproducible from their
// inputs alone.
#pragma once

#include "liberty/library.hpp"
#include "tech/tech.hpp"

namespace m3d::liberty {

/// Builds the analytic library of `style`'s cells (tech::cell_style):
/// delay = base/drive-ish + k*load/drive, matching the shape (not the
/// values) of the characterized one.
Library analytic_library(tech::Style style = tech::Style::k2D);

}  // namespace m3d::liberty
