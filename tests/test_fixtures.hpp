// Shared test fixtures: a fast synthetic NLDM library (no SPICE runs) and a
// functional netlist evaluator, so unit tests of synth/place/route/sta/
// power/opt/flow are quick and deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "cells/spec.hpp"
#include "liberty/analytic.hpp"
#include "liberty/library.hpp"
#include "tech/tech.hpp"

namespace m3d::test {

/// The analytic library (liberty/analytic.hpp), kept under its test name.
inline liberty::Library make_test_library(
    tech::Style style = tech::Style::k2D) {
  return liberty::analytic_library(style);
}

/// Functional evaluation of a netlist: combinational propagate with DFF
/// outputs treated as inputs (single-cycle view). `values` must pre-set all
/// primary-input nets and DFF output nets; on return it holds every net.
inline void eval_netlist(const circuit::Netlist& nl,
                         std::map<circuit::NetId, bool>* values) {
  for (circuit::InstId id : nl.topo_order()) {
    const circuit::Instance& inst = nl.inst(id);
    if (inst.sequential()) continue;
    uint32_t minterm = 0;
    for (size_t p = 0; p < inst.in_nets.size(); ++p) {
      if (values->at(inst.in_nets[p])) minterm |= (1u << p);
    }
    for (size_t o = 0; o < inst.out_nets.size(); ++o) {
      (*values)[inst.out_nets[o]] =
          cells::eval(inst.func, static_cast<int>(o), minterm);
    }
  }
}

/// Sets every PI / DFF-Q net from the bits of `seed` (hashed), then
/// evaluates. Convenience for property tests.
inline std::map<circuit::NetId, bool> eval_with_random_state(
    const circuit::Netlist& nl, uint64_t seed) {
  std::map<circuit::NetId, bool> values;
  uint64_t sm = seed;
  auto next_bit = [&] {
    sm = sm * 6364136223846793005ULL + 1442695040888963407ULL;
    return (sm >> 62) & 1u;
  };
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_primary_input || net.is_clock) values[n] = next_bit();
  }
  for (int i = 0; i < nl.num_instances(); ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (!inst.dead && inst.sequential()) values[inst.out_nets[0]] = next_bit();
  }
  // Default-fill any remaining nets (dangling).
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) values.emplace(n, false);
  eval_netlist(nl, &values);
  return values;
}

}  // namespace m3d::test
