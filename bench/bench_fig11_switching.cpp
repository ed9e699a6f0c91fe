// Fig 11: power vs switching activity factor of the sequential outputs
// (M256 absolute power, and the power reduction rate for all circuits).
// Paper: total power rises with activity but the T-MI reduction rate stays
// nearly flat.
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  const double activities[] = {0.1, 0.2, 0.3, 0.4};
  constexpr size_t kNumActivities = 4;

  // The per-circuit base comparisons pin the clock; the activity sweep (5
  // circuits x 4 activities, all independent) then fans out across the
  // exec pool, and the tables print from the ordered results.
  std::vector<flow::FlowOptions> base_jobs;
  for (gen::Bench b : gen::all_benches()) {
    base_jobs.push_back(preset(b, tech::Node::k45nm));
  }
  const std::vector<Cmp> bases = compare_cached_all(base_jobs);

  std::vector<flow::FlowOptions> jobs;
  size_t bi = 0;
  for (gen::Bench b : gen::all_benches()) {
    flow::FlowOptions o = preset(b, tech::Node::k45nm);
    o.clock_ns = bases[bi++].flat.clock_ns;
    for (double a : activities) {
      o.seq_activity = a;
      jobs.push_back(o);
    }
  }
  const std::vector<Cmp> sweep = compare_cached_all(jobs);

  util::Table t1(
      "Fig 11(a): M256 total power (uW) vs sequential switching activity,\n"
      "45nm.");
  t1.set_header({"activity", "2D uW", "3D uW", "reduction"});
  size_t bench_idx = 0;
  for (gen::Bench b : gen::all_benches()) {
    if (b == gen::Bench::kM256) {
      for (size_t ai = 0; ai < kNumActivities; ++ai) {
        const Cmp& c = sweep[bench_idx * kNumActivities + ai];
        t1.add_row({util::strf("%.1f", activities[ai]),
                    util::strf("%.1f", c.flat.total_uw),
                    util::strf("%.1f", c.tmi.total_uw),
                    pct_str(c.tmi.total_uw, c.flat.total_uw)});
      }
    }
    ++bench_idx;
  }
  t1.print();

  util::Table t2(
      "\nFig 11(b): power reduction rate vs switching activity, all\n"
      "circuits, 45nm (paper: nearly flat curves).");
  std::vector<std::string> header{"circuit"};
  for (double a : activities) header.push_back(util::strf("a=%.1f", a));
  t2.set_header(header);
  bench_idx = 0;
  for (gen::Bench b : gen::all_benches()) {
    std::vector<std::string> row{gen::to_string(b)};
    for (size_t ai = 0; ai < kNumActivities; ++ai) {
      const Cmp& c = sweep[bench_idx * kNumActivities + ai];
      row.push_back(pct_str(c.tmi.total_uw, c.flat.total_uw));
    }
    t2.add_row(row);
    ++bench_idx;
  }
  t2.print();
  return 0;
}
