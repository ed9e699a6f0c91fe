// Structural netlist builder: gate helpers, buses, adders, and BDD-based
// multi-output LUT synthesis (hash-consed Shannon decomposition mapped onto
// MUX2/AND2/OR2/INV gates) — the "synthesis front-end" our benchmark
// generators use in place of RTL.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"

namespace m3d::gen {

using circuit::NetId;

class Gb {
 public:
  explicit Gb(circuit::Netlist* nl);

  circuit::Netlist& nl() { return *nl_; }

  /// Primary input / output ports.
  NetId input(const std::string& name);
  std::vector<NetId> input_bus(const std::string& name, int bits);
  void output(const std::string& name, NetId net);
  void output_bus(const std::string& name, const std::vector<NetId>& nets);
  /// The clock net (created on first use).
  NetId clock();

  // Basic gates (each creates one instance).
  NetId inv(NetId a);
  NetId buf(NetId a);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId nand2(NetId a, NetId b);
  NetId nor2(NetId a, NetId b);
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b);
  /// s ? b : a
  NetId mux2(NetId a, NetId b, NetId s);
  NetId aoi21(NetId a1, NetId a2, NetId b);
  /// Full adder; returns {sum, carry}.
  std::pair<NetId, NetId> full_add(NetId a, NetId b, NetId ci);
  std::pair<NetId, NetId> half_add(NetId a, NetId b);

  /// Balanced gate trees over n inputs.
  NetId and_n(std::vector<NetId> xs);
  NetId or_n(std::vector<NetId> xs);
  NetId xor_n(std::vector<NetId> xs);

  /// Constants (built lazily from the first available input).
  NetId zero();
  NetId one();

  /// D flip-flop clocked by clock().
  NetId dff(NetId d);
  std::vector<NetId> dff_bus(const std::vector<NetId>& d);

  /// Ripple-carry adder; returns sum bits (a.size()) plus carry out.
  std::vector<NetId> ripple_add(const std::vector<NetId>& a,
                                const std::vector<NetId>& b, NetId cin,
                                NetId* cout = nullptr);

  /// Carry-select adder (blocks of `block` bits): logarithmically shallower
  /// than ripple — the kind of structure synthesis would map wide adds to.
  std::vector<NetId> fast_add(const std::vector<NetId>& a,
                              const std::vector<NetId>& b, NetId cin,
                              NetId* cout = nullptr, int block = 8);

  /// One row of a carry-save array multiplier: adds the partial product
  /// a & b_bit into the redundant window `sum`/`carry` (a.size() columns
  /// each, kInvalid where a column holds nothing). Per column an FA, or an
  /// HA when only two operands are present, compresses {sum, carry, pp} into
  /// a digit plus a carry into the next column; the window then shifts right
  /// one column. Returns the column-0 digit, a finished product bit.
  NetId csa_row(const std::vector<NetId>& a, NetId b_bit, std::vector<NetId>* sum,
                std::vector<NetId>* carry);

  /// Multi-output LUT: values has 2^inputs.size() entries; bit o of
  /// values[m] is output o at input minterm m (inputs[0] = LSB). Synthesized
  /// as a reduced BDD mapped to gates; identical sub-functions (within and
  /// across outputs and LUT calls) are built once.
  std::vector<NetId> lut(const std::vector<NetId>& inputs,
                         const std::vector<uint32_t>& values, int num_outputs);
  /// Single-output LUT for up to 6 inputs, truth as a minterm bitmask.
  NetId lut1(const std::vector<NetId>& inputs, uint64_t truth);

  int gates_emitted() const { return gates_; }

 private:
  // --- BDD engine -----------------------------------------------------------
  struct BddNode {
    int var;  // input index (decision on the *highest* remaining var)
    int lo, hi;
  };
  static constexpr int kFalse = 0, kTrue = 1;
  int bdd_mk(int var, int lo, int hi);
  int bdd_build(const std::vector<uint8_t>& vals, size_t lo, size_t hi,
                int var);
  NetId emit(int node, const std::vector<NetId>& inputs);
  NetId inv_cached(NetId a);

  circuit::Netlist* nl_;
  NetId clock_ = circuit::kInvalid;
  NetId zero_ = circuit::kInvalid;
  NetId one_ = circuit::kInvalid;
  NetId first_input_ = circuit::kInvalid;
  int gates_ = 0;
  std::vector<BddNode> bdd_nodes_;
  std::map<std::tuple<int, int, int>, int> bdd_unique_;
  std::unordered_map<int, NetId> emit_cache_;
  std::unordered_map<NetId, NetId> inv_cache_;
};

}  // namespace m3d::gen
