// FPU: double-precision floating-point add + multiply datapath (paper
// Table 12: 9.7k cells, 1.8 ns). Exponent compare/align, mantissa add with
// leading-zero normalization, and a carry-save mantissa multiplier array,
// pipelined at the natural stage boundaries.
#include <algorithm>

#include "gen/builder.hpp"
#include "gen/gen.hpp"
#include "util/strf.hpp"

namespace m3d::gen {
namespace {

/// Barrel shifter (right when `right`, else left) by a log-encoded amount.
std::vector<NetId> barrel(Gb& g, std::vector<NetId> x,
                          const std::vector<NetId>& amount, bool right,
                          NetId fill) {
  const int n = static_cast<int>(x.size());
  for (size_t stage = 0; stage < amount.size(); ++stage) {
    const int sh = 1 << stage;
    if (sh >= n) break;
    std::vector<NetId> shifted(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int src = right ? i + sh : i - sh;
      shifted[static_cast<size_t>(i)] =
          (src >= 0 && src < n) ? x[static_cast<size_t>(src)] : fill;
    }
    for (int i = 0; i < n; ++i) {
      x[static_cast<size_t>(i)] =
          g.mux2(x[static_cast<size_t>(i)], shifted[static_cast<size_t>(i)], amount[stage]);
    }
  }
  return x;
}

/// Leading-zero-ish encoder: priority chain producing a log2(n)-bit position
/// of the highest set bit (approximate normalization control).
std::vector<NetId> priority_encode(Gb& g, const std::vector<NetId>& x,
                                   int out_bits) {
  // found_i = x[n-1] | ... | x[i]; position bits from binary-weighted ORs.
  const int n = static_cast<int>(x.size());
  std::vector<NetId> enc;
  for (int b = 0; b < out_bits; ++b) {
    // Bit b of the (inverted) leading-zero count: OR of x[i] where the
    // highest set index has bit b — approximated by grouping.
    std::vector<NetId> grp;
    for (int i = 0; i < n; ++i) {
      if ((static_cast<unsigned>(n - 1 - i) >> b) & 1u) grp.push_back(x[static_cast<size_t>(i)]);
    }
    enc.push_back(grp.empty() ? g.zero() : g.or_n(grp));
  }
  return enc;
}

}  // namespace

circuit::Netlist make_fpu(const GenOptions& opt) {
  const int man = std::max(12, 52 >> opt.scale_shift);  // mantissa bits
  const int exp = std::max(6, 11 - opt.scale_shift);    // exponent bits
  const int log_man = [&] {
    int b = 0;
    while ((1 << b) < man) ++b;
    return b;
  }();

  circuit::Netlist nl;
  nl.name = "FPU";
  Gb g(&nl);

  const auto ea = g.dff_bus(g.input_bus("ea", exp));
  const auto eb = g.dff_bus(g.input_bus("eb", exp));
  const auto ma = g.dff_bus(g.input_bus("ma", man));
  const auto mb = g.dff_bus(g.input_bus("mb", man));
  const NetId sub = g.dff(g.input("sub"));
  const NetId op_mul = g.dff(g.input("op_mul"));

  // ---- Adder path -----------------------------------------------------------
  // Exponent difference (ripple subtract via complement).
  std::vector<NetId> ebn(static_cast<size_t>(exp));
  for (int i = 0; i < exp; ++i) ebn[static_cast<size_t>(i)] = g.inv(eb[static_cast<size_t>(i)]);
  NetId borrow_out = circuit::kInvalid;
  const auto ediff = g.fast_add(ea, ebn, g.one(), &borrow_out, 4);
  const NetId a_ge_b = borrow_out;  // carry out => ea >= eb

  // Swap so the larger-exponent operand stays fixed.
  std::vector<NetId> mbig(static_cast<size_t>(man)), msmall(static_cast<size_t>(man));
  for (int i = 0; i < man; ++i) {
    mbig[static_cast<size_t>(i)] = g.mux2(mb[static_cast<size_t>(i)], ma[static_cast<size_t>(i)], a_ge_b);
    msmall[static_cast<size_t>(i)] = g.mux2(ma[static_cast<size_t>(i)], mb[static_cast<size_t>(i)], a_ge_b);
  }
  // Align the smaller mantissa.
  std::vector<NetId> shamt(ediff.begin(), ediff.begin() + std::min<size_t>(ediff.size(), static_cast<size_t>(log_man)));
  auto aligned = barrel(g, msmall, shamt, /*right=*/true, g.zero());

  // Pipeline register between align and add.
  mbig = g.dff_bus(mbig);
  aligned = g.dff_bus(aligned);
  const NetId sub_q = g.dff(sub);

  // Add or subtract (xor with sub).
  std::vector<NetId> addend(static_cast<size_t>(man));
  for (int i = 0; i < man; ++i) {
    addend[static_cast<size_t>(i)] = g.xor2(aligned[static_cast<size_t>(i)], sub_q);
  }
  NetId cout = circuit::kInvalid;
  auto msum = g.fast_add(mbig, addend, sub_q, &cout);

  // Pipeline register between add and normalize.
  msum = g.dff_bus(msum);
  cout = g.dff(cout);

  // Normalize: find leading one and shift left.
  const auto lz = priority_encode(g, msum, log_man);
  auto norm = barrel(g, msum, lz, /*right=*/false, g.zero());

  // Exponent adjust (placeholder datapath: exponent of the bigger input
  // plus carry corrections).
  std::vector<NetId> ebig(static_cast<size_t>(exp));
  for (int i = 0; i < exp; ++i) {
    ebig[static_cast<size_t>(i)] = g.mux2(eb[static_cast<size_t>(i)], ea[static_cast<size_t>(i)], a_ge_b);
  }
  std::vector<NetId> lz_ext(static_cast<size_t>(exp), g.zero());
  for (int i = 0; i < std::min(exp, log_man); ++i) lz_ext[static_cast<size_t>(i)] = lz[static_cast<size_t>(i)];
  const auto eout = g.fast_add(g.dff_bus(ebig), lz_ext, cout, nullptr, 4);

  // ---- Multiplier path ------------------------------------------------------
  // Carry-save array over the mantissas: the same rows as M256
  // (Gb::csa_row), with a pipeline cut every 16 rows.
  const NetId none = circuit::kInvalid;
  std::vector<NetId> sum(static_cast<size_t>(man), none), carry(static_cast<size_t>(man), none);
  std::vector<NetId> plo;
  for (int i = 0; i < man; ++i) {
    plo.push_back(g.csa_row(ma, mb[static_cast<size_t>(i)], &sum, &carry));
    if ((i + 1) % 16 == 0 && i + 1 < man) {
      for (auto& s : sum) {
        if (s != none) s = g.dff(s);
      }
      for (auto& c : carry) {
        if (c != none) c = g.dff(c);
      }
      for (auto& p : plo) p = g.dff(p);
    }
  }
  std::vector<NetId> hs(static_cast<size_t>(man)), hc(static_cast<size_t>(man));
  for (int j = 0; j < man; ++j) {
    hs[static_cast<size_t>(j)] = sum[static_cast<size_t>(j)] != none ? sum[static_cast<size_t>(j)] : g.zero();
    hc[static_cast<size_t>(j)] = carry[static_cast<size_t>(j)] != none ? carry[static_cast<size_t>(j)] : g.zero();
  }
  std::vector<NetId> phi;
  {
    NetId pcarry = g.zero();
    for (int lo = 0; lo < man; lo += 16) {
      const int hi2 = std::min(lo + 16, man);
      const std::vector<NetId> sa(hs.begin() + lo, hs.begin() + hi2);
      const std::vector<NetId> sb(hc.begin() + lo, hc.begin() + hi2);
      NetId co2 = circuit::kInvalid;
      const auto sec = g.fast_add(sa, sb, pcarry, &co2);
      for (NetId bit : sec) phi.push_back(g.dff(bit));
      pcarry = g.dff(co2);
    }
  }
  const auto emul = g.fast_add(ea, eb, g.zero(), nullptr, 4);

  // ---- Result select --------------------------------------------------------
  const NetId op_q = g.dff(op_mul);
  std::vector<NetId> mant_out(static_cast<size_t>(man));
  for (int i = 0; i < man; ++i) {
    mant_out[static_cast<size_t>(i)] =
        g.mux2(norm[static_cast<size_t>(i)], phi[static_cast<size_t>(i)], op_q);
  }
  std::vector<NetId> exp_out(static_cast<size_t>(exp));
  for (int i = 0; i < exp; ++i) {
    exp_out[static_cast<size_t>(i)] =
        g.mux2(eout[static_cast<size_t>(i)], emul[static_cast<size_t>(i)], op_q);
  }
  g.output_bus("mant", g.dff_bus(mant_out));
  g.output_bus("exp", g.dff_bus(exp_out));
  g.output_bus("plo", g.dff_bus(plo));
  return nl;
}

}  // namespace m3d::gen
