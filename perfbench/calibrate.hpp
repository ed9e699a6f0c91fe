// Host-speed calibration for the benchmark's CPU times. On a shared host the
// CPU speed a process gets drifts with what other tenants run: within one
// set of runs a few minutes long, unit_cpu_s fell by 42% on ldpc_iso and by
// 32-33% on des_sweep and char_lib at the same moment. The benchmark
// therefore times a fixed kernel of its own throughout every run and scales
// its CPU times to a host on which that kernel takes kReferenceS. The kernel
// is compiled from this directory only, so no change to the m3d library can
// speed it up.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU seconds of one kernel run on the reference host. A scaled time reads
/// `measured * kReferenceS / median kernel CPU seconds of the run`.
constexpr double kReferenceS = 0.03;

/// Runs the kernel a few times on the calling thread and appends each run's
/// thread CPU time to `cpu_s`. Returns false if a run's result differs from
/// the kernel's first result in this process.
///
/// The kernel computes Dijkstra shortest paths over a grid with
/// pseudo-random node costs: the access pattern of maze routing and of the
/// graph traversals of timing analysis.
bool calibrate(std::vector<double>* cpu_s);

}  // namespace perfbench
