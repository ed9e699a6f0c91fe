#include "gen/builder.hpp"

#include <cassert>

#include "util/strf.hpp"

namespace m3d::gen {

using cells::Func;

Gb::Gb(circuit::Netlist* nl) : nl_(nl) {
  // Reserve BDD terminals 0 (false) and 1 (true).
  bdd_nodes_.push_back({-1, 0, 0});
  bdd_nodes_.push_back({-1, 1, 1});
}

NetId Gb::input(const std::string& name) {
  const NetId n = nl_->new_net(name);
  nl_->add_input_port(name, n);
  if (first_input_ == circuit::kInvalid) first_input_ = n;
  return n;
}

std::vector<NetId> Gb::input_bus(const std::string& name, int bits) {
  std::vector<NetId> out;
  out.reserve(static_cast<size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    out.push_back(input(util::strf("%s[%d]", name.c_str(), i)));
  }
  return out;
}

void Gb::output(const std::string& name, NetId net) {
  nl_->add_output_port(name, net);
}

void Gb::output_bus(const std::string& name, const std::vector<NetId>& nets) {
  for (size_t i = 0; i < nets.size(); ++i) {
    output(util::strf("%s[%zu]", name.c_str(), i), nets[i]);
  }
}

NetId Gb::clock() {
  if (clock_ == circuit::kInvalid) {
    clock_ = nl_->new_net("clk");
    nl_->add_input_port("clk", clock_);
    nl_->set_clock(clock_);
  }
  return clock_;
}

namespace {
}  // namespace

NetId Gb::inv(NetId a) {
  const NetId z = nl_->new_net();
  nl_->add_gate(Func::kInv, {a}, {z});
  ++gates_;
  return z;
}

NetId Gb::buf(NetId a) {
  const NetId z = nl_->new_net();
  nl_->add_gate(Func::kBuf, {a}, {z});
  ++gates_;
  return z;
}

#define M3D_GB_BIN(name, func)                       \
  NetId Gb::name(NetId a, NetId b) {                 \
    const NetId z = nl_->new_net();                  \
    nl_->add_gate(Func::func, {a, b}, {z});          \
    ++gates_;                                        \
    return z;                                        \
  }
M3D_GB_BIN(and2, kAnd2)
M3D_GB_BIN(or2, kOr2)
M3D_GB_BIN(nand2, kNand2)
M3D_GB_BIN(nor2, kNor2)
M3D_GB_BIN(xor2, kXor2)
M3D_GB_BIN(xnor2, kXnor2)
#undef M3D_GB_BIN

NetId Gb::mux2(NetId a, NetId b, NetId s) {
  const NetId z = nl_->new_net();
  nl_->add_gate(Func::kMux2, {a, b, s}, {z});
  ++gates_;
  return z;
}

NetId Gb::aoi21(NetId a1, NetId a2, NetId b) {
  const NetId z = nl_->new_net();
  nl_->add_gate(Func::kAoi21, {a1, a2, b}, {z});
  ++gates_;
  return z;
}

std::pair<NetId, NetId> Gb::full_add(NetId a, NetId b, NetId ci) {
  const NetId s = nl_->new_net();
  const NetId co = nl_->new_net();
  nl_->add_gate(Func::kFa, {a, b, ci}, {s, co});
  ++gates_;
  return {s, co};
}

std::pair<NetId, NetId> Gb::half_add(NetId a, NetId b) {
  const NetId s = nl_->new_net();
  const NetId co = nl_->new_net();
  nl_->add_gate(Func::kHa, {a, b}, {s, co});
  ++gates_;
  return {s, co};
}

NetId Gb::and_n(std::vector<NetId> xs) {
  assert(!xs.empty());
  while (xs.size() > 1) {
    std::vector<NetId> next;
    for (size_t i = 0; i + 1 < xs.size(); i += 2) next.push_back(and2(xs[i], xs[i + 1]));
    if (xs.size() % 2) next.push_back(xs.back());
    xs = std::move(next);
  }
  return xs[0];
}

NetId Gb::or_n(std::vector<NetId> xs) {
  assert(!xs.empty());
  while (xs.size() > 1) {
    std::vector<NetId> next;
    for (size_t i = 0; i + 1 < xs.size(); i += 2) next.push_back(or2(xs[i], xs[i + 1]));
    if (xs.size() % 2) next.push_back(xs.back());
    xs = std::move(next);
  }
  return xs[0];
}

NetId Gb::xor_n(std::vector<NetId> xs) {
  assert(!xs.empty());
  while (xs.size() > 1) {
    std::vector<NetId> next;
    for (size_t i = 0; i + 1 < xs.size(); i += 2) next.push_back(xor2(xs[i], xs[i + 1]));
    if (xs.size() % 2) next.push_back(xs.back());
    xs = std::move(next);
  }
  return xs[0];
}

NetId Gb::zero() {
  if (zero_ == circuit::kInvalid) {
    assert(first_input_ != circuit::kInvalid && "need an input before zero()");
    zero_ = xor2(first_input_, first_input_);
  }
  return zero_;
}

NetId Gb::one() {
  if (one_ == circuit::kInvalid) {
    assert(first_input_ != circuit::kInvalid && "need an input before one()");
    one_ = xnor2(first_input_, first_input_);
  }
  return one_;
}

NetId Gb::dff(NetId d) {
  const NetId q = nl_->new_net();
  nl_->add_gate(Func::kDff, {d, clock()}, {q});
  ++gates_;
  return q;
}

std::vector<NetId> Gb::dff_bus(const std::vector<NetId>& d) {
  std::vector<NetId> q;
  q.reserve(d.size());
  for (NetId n : d) q.push_back(dff(n));
  return q;
}

std::vector<NetId> Gb::ripple_add(const std::vector<NetId>& a,
                                  const std::vector<NetId>& b, NetId cin,
                                  NetId* cout) {
  assert(a.size() == b.size());
  std::vector<NetId> sum;
  sum.reserve(a.size());
  NetId carry = cin;
  for (size_t i = 0; i < a.size(); ++i) {
    if (carry == circuit::kInvalid) {
      auto [s, co] = half_add(a[i], b[i]);
      sum.push_back(s);
      carry = co;
    } else {
      auto [s, co] = full_add(a[i], b[i], carry);
      sum.push_back(s);
      carry = co;
    }
  }
  if (cout != nullptr) *cout = carry;
  return sum;
}

std::vector<NetId> Gb::fast_add(const std::vector<NetId>& a,
                                const std::vector<NetId>& b, NetId cin,
                                NetId* cout, int block) {
  assert(a.size() == b.size());
  const int w = static_cast<int>(a.size());
  std::vector<NetId> sum(static_cast<size_t>(w));
  NetId carry = cin;
  for (int lo = 0; lo < w; lo += block) {
    const int hi = std::min(lo + block, w);
    const std::vector<NetId> ab(a.begin() + lo, a.begin() + hi);
    const std::vector<NetId> bb(b.begin() + lo, b.begin() + hi);
    if (lo == 0) {
      NetId co = circuit::kInvalid;
      const auto s = ripple_add(ab, bb, carry, &co);
      std::copy(s.begin(), s.end(), sum.begin() + lo);
      carry = co;
      continue;
    }
    // Two speculative ripples (cin = 0 and cin = 1), then select.
    NetId co0 = circuit::kInvalid, co1 = circuit::kInvalid;
    const auto s0 = ripple_add(ab, bb, zero(), &co0);
    const auto s1 = ripple_add(ab, bb, one(), &co1);
    for (int i = lo; i < hi; ++i) {
      sum[static_cast<size_t>(i)] =
          mux2(s0[static_cast<size_t>(i - lo)], s1[static_cast<size_t>(i - lo)], carry);
    }
    carry = mux2(co0, co1, carry);
  }
  if (cout != nullptr) *cout = carry;
  return sum;
}

NetId Gb::csa_row(const std::vector<NetId>& a, NetId b_bit, std::vector<NetId>* sum,
                  std::vector<NetId>* carry) {
  const NetId none = circuit::kInvalid;
  const size_t w = a.size();
  assert(sum->size() == w && carry->size() == w);
  std::vector<NetId> digit(w, none);
  std::vector<NetId> cnext(w + 1, none);  // cnext[j+1]: carry into col j+1
  for (size_t j = 0; j < w; ++j) {
    const NetId pp = and2(a[j], b_bit);
    std::vector<NetId> xs;
    if ((*sum)[j] != none) xs.push_back((*sum)[j]);
    if ((*carry)[j] != none) xs.push_back((*carry)[j]);
    xs.push_back(pp);
    if (xs.size() == 1) {
      digit[j] = xs[0];
      continue;
    }
    const auto [s, co] =
        xs.size() == 2 ? half_add(xs[0], xs[1]) : full_add(xs[0], xs[1], xs[2]);
    digit[j] = s;
    cnext[j + 1] = co;
  }
  // Shift the window right: old column j+1 becomes new column j.
  for (size_t j = 0; j < w; ++j) {
    (*sum)[j] = j + 1 < w ? digit[j + 1] : none;
    (*carry)[j] = cnext[j + 1];
  }
  return digit[0];
}

// --- BDD-based LUT synthesis -------------------------------------------------

int Gb::bdd_mk(int var, int lo, int hi) {
  if (lo == hi) return lo;
  const auto key = std::make_tuple(var, lo, hi);
  const auto it = bdd_unique_.find(key);
  if (it != bdd_unique_.end()) return it->second;
  const int id = static_cast<int>(bdd_nodes_.size());
  bdd_nodes_.push_back({var, lo, hi});
  bdd_unique_.emplace(key, id);
  return id;
}

int Gb::bdd_build(const std::vector<uint8_t>& vals, size_t lo, size_t hi,
                  int var) {
  if (hi - lo == 1) return vals[lo] ? kTrue : kFalse;
  const size_t mid = lo + (hi - lo) / 2;
  const int l = bdd_build(vals, lo, mid, var - 1);
  const int h = bdd_build(vals, mid, hi, var - 1);
  return bdd_mk(var, l, h);
}

NetId Gb::inv_cached(NetId a) {
  const auto it = inv_cache_.find(a);
  if (it != inv_cache_.end()) return it->second;
  const NetId z = inv(a);
  inv_cache_.emplace(a, z);
  return z;
}

NetId Gb::emit(int node, const std::vector<NetId>& inputs) {
  if (node == kFalse) return zero();
  if (node == kTrue) return one();
  const auto it = emit_cache_.find(node);
  if (it != emit_cache_.end()) return it->second;
  const BddNode n = bdd_nodes_[static_cast<size_t>(node)];
  const NetId v = inputs[static_cast<size_t>(n.var)];
  NetId z;
  if (n.lo == kFalse && n.hi == kTrue) {
    z = v;
  } else if (n.lo == kTrue && n.hi == kFalse) {
    z = inv_cached(v);
  } else if (n.hi == kFalse) {
    z = and2(inv_cached(v), emit(n.lo, inputs));
  } else if (n.lo == kFalse) {
    z = and2(v, emit(n.hi, inputs));
  } else if (n.hi == kTrue) {
    z = or2(v, emit(n.lo, inputs));
  } else if (n.lo == kTrue) {
    z = or2(inv_cached(v), emit(n.hi, inputs));
  } else {
    z = mux2(emit(n.lo, inputs), emit(n.hi, inputs), v);
  }
  emit_cache_.emplace(node, z);
  return z;
}

std::vector<NetId> Gb::lut(const std::vector<NetId>& inputs,
                           const std::vector<uint32_t>& values,
                           int num_outputs) {
  const int n = static_cast<int>(inputs.size());
  assert(values.size() == (size_t{1} << n));
  // BDD variables index into *this call's* inputs: reset the per-call state
  // (sub-function sharing applies within a LUT, across its outputs).
  bdd_nodes_.resize(2);
  bdd_unique_.clear();
  emit_cache_.clear();
  std::vector<NetId> outs;
  outs.reserve(static_cast<size_t>(num_outputs));
  std::vector<uint8_t> bit(values.size());
  for (int o = 0; o < num_outputs; ++o) {
    for (size_t m = 0; m < values.size(); ++m) {
      bit[m] = (values[m] >> o) & 1u;
    }
    const int root = bdd_build(bit, 0, values.size(), n - 1);
    outs.push_back(emit(root, inputs));
  }
  return outs;
}

NetId Gb::lut1(const std::vector<NetId>& inputs, uint64_t truth) {
  assert(inputs.size() <= 6);
  std::vector<uint32_t> values(size_t{1} << inputs.size());
  for (size_t m = 0; m < values.size(); ++m) {
    values[m] = static_cast<uint32_t>((truth >> m) & 1u);
  }
  return lut(inputs, values, 1)[0];
}

}  // namespace m3d::gen
