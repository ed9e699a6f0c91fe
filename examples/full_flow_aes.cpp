// Full-flow example: take the AES-128 engine through synthesis, placement,
// routing and sign-off twice — once 2D, once T-MI — at the same clock, and
// print the iso-performance comparison (the paper's core experiment, one
// circuit).
//
//   ./build/examples/full_flow_aes [scale_shift] [clock_ns]
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>

#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "flow/warm.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

using namespace m3d;

int main(int argc, char** argv) {
  util::set_default_log_level(util::LogLevel::kInfo);
  const int shift = argc > 1 ? std::atoi(argv[1]) : 2;
  const double clock_ns = argc > 2 ? std::atof(argv[2]) : 0.0;  // 0 = auto

  // Characterized libraries (built once, then served from the store).
  flow::WarmContext& libs = flow::characterized_libraries();
  const liberty::Library& lib2d =
      libs.library(tech::Node::k45nm, tech::Style::k2D);
  const liberty::Library& lib3d =
      libs.library(tech::Node::k45nm, tech::Style::kTMI);

  flow::FlowOptions opt;
  opt.bench = gen::Bench::kAes;
  opt.scale_shift = shift;
  opt.clock_ns = clock_ns;
  opt.lib = &lib2d;
  const flow::CompareResult cmp = flow::run_iso_comparison(opt, lib2d, lib3d);

  util::Table t(util::strf("AES iso-performance comparison @ %.3f ns:",
                           cmp.flat.clock_ns));
  t.set_header({"metric", "2D", "T-MI", "delta"});
  auto row = [&](const char* name, double v2, double v3, const char* fmt) {
    t.add_row({name, util::strf(fmt, v2), util::strf(fmt, v3),
               util::strf("%+.1f%%", 100.0 * (v3 / v2 - 1.0))});
  };
  row("footprint (um2)", cmp.flat.footprint_um2, cmp.tmi.footprint_um2, "%.0f");
  row("wirelength (mm)", cmp.flat.total_wl_um / 1e3, cmp.tmi.total_wl_um / 1e3,
      "%.3f");
  row("cells", cmp.flat.cells, cmp.tmi.cells, "%.0f");
  row("buffers", cmp.flat.buffers, cmp.tmi.buffers, "%.0f");
  row("total power (uW)", cmp.flat.total_uw, cmp.tmi.total_uw, "%.1f");
  row("  cell power", cmp.flat.cell_uw, cmp.tmi.cell_uw, "%.1f");
  row("  net power", cmp.flat.net_uw, cmp.tmi.net_uw, "%.1f");
  row("  leakage", cmp.flat.leak_uw, cmp.tmi.leak_uw, "%.2f");
  t.add_row({"WNS (ps)", util::strf("%+.0f", cmp.flat.wns_ps),
             util::strf("%+.0f", cmp.tmi.wns_ps), ""});
  t.add_row({"timing met", cmp.flat.timing_met ? "yes" : "NO",
             cmp.tmi.timing_met ? "yes" : "NO", ""});
  t.print();

  // Machine-readable run reports: per-stage wall clock + iteration counters.
  ::mkdir("out_figs", 0755);
  for (const flow::FlowResult* r : {&cmp.flat, &cmp.tmi}) {
    const std::string path =
        "out_figs/" + report::report_filename(r->bench_name,
                                              tech::to_string(r->style));
    if (report::write_json(*r, path)) {
      std::printf("run report: %s\n", path.c_str());
    }
  }
  return cmp.flat.timing_met && cmp.tmi.timing_met ? 0 : 1;
}
