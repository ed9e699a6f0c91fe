// M256: partial-sum-add 256-bit integer multiplier (paper supplement S4),
// built as a carry-save array with pipeline registers every few rows.
//
// Row i adds the partial product a*b_i into a redundant (sum, carry) window
// holding the running result shifted right by i: per column a FA compresses
// {sum, carry, pp} into a new digit plus a carry into the next column; the
// column-0 digit is the finished product bit i, and the window shifts right
// (Gb::csa_row, which the FPU's mantissa multiplier shares).
#include "gen/builder.hpp"
#include "gen/gen.hpp"

namespace m3d::gen {

circuit::Netlist make_m256(const GenOptions& opt) {
  const int w = std::max(8, 256 >> opt.scale_shift);
  const int rows_per_stage = 8;
  const size_t wz = static_cast<size_t>(w);

  circuit::Netlist nl;
  nl.name = "M256";
  Gb g(&nl);

  const auto a = g.dff_bus(g.input_bus("a", w));
  const auto b = g.dff_bus(g.input_bus("b", w));

  const NetId none = circuit::kInvalid;
  std::vector<NetId> sum(wz, none);    // window digit at column j
  std::vector<NetId> carry(wz, none);  // carry to be added at column j
  std::vector<NetId> low_bits;         // finished product bits [0..w-1]

  for (int i = 0; i < w; ++i) {
    // Column 0 is final: carries only travel upward.
    low_bits.push_back(g.dff(g.csa_row(a, b[static_cast<size_t>(i)], &sum, &carry)));

    // Pipeline cut every few rows keeps the stage depth near the paper's
    // 2.4 ns target.
    if ((i + 1) % rows_per_stage == 0 && i + 1 < w) {
      for (auto& s : sum) {
        if (s != none) s = g.dff(s);
      }
      for (auto& c : carry) {
        if (c != none) c = g.dff(c);
      }
    }
  }

  // Resolve the remaining redundant window with a pipelined carry-select
  // adder (32-bit sections, registered carries), so the final add has the
  // same stage depth as the array rows.
  std::vector<NetId> hs(wz), hc(wz);
  for (size_t j = 0; j < wz; ++j) {
    hs[j] = sum[j] != none ? sum[j] : g.zero();
    hc[j] = carry[j] != none ? carry[j] : g.zero();
  }
  std::vector<NetId> high;
  NetId hcarry = g.zero();
  for (int lo = 0; lo < w; lo += 32) {
    const int hi = std::min(lo + 32, w);
    const std::vector<NetId> sa(hs.begin() + lo, hs.begin() + hi);
    const std::vector<NetId> sb(hc.begin() + lo, hc.begin() + hi);
    NetId co = circuit::kInvalid;
    const auto sec = g.fast_add(sa, sb, hcarry, &co);
    for (NetId bit : sec) high.push_back(g.dff(bit));
    hcarry = g.dff(co);
  }

  g.output_bus("p_lo", low_bits);
  g.output_bus("p_hi", g.dff_bus(high));
  return nl;
}

}  // namespace m3d::gen
