#include "sta/cell_tables.hpp"

#include <map>
#include <utility>

#include "cells/func.hpp"

namespace m3d::sta {

CellTables::CellTables(const circuit::Netlist& nl) {
  const int num_inst = nl.num_instances();
  table_of_.assign(static_cast<size_t>(num_inst), -1);
  // Tables are numbered in first-use instance order; the map is only
  // looked up, never iterated.
  std::map<std::pair<const liberty::LibCell*, cells::Func>, int> ids;
  for (circuit::InstId i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.libcell == nullptr) continue;
    const auto [it, fresh] = ids.try_emplace({inst.libcell, inst.func},
                                             static_cast<int>(tables_.size()));
    table_of_[static_cast<size_t>(i)] = it->second;
    if (!fresh) continue;
    const liberty::LibCell& cell = *inst.libcell;
    const auto& in_pins = cells::input_pins(inst.func);
    const auto& out_pins = cells::output_pins(inst.func);
    CellTable t;
    t.num_in = in_pins.size();
    for (const std::string& pin : in_pins) {
      t.pin_cap_ff.push_back(cell.input_cap_ff(pin));
    }
    for (const std::string& out : out_pins) {
      for (const std::string& in : in_pins) t.arcs.push_back(cell.arc(in, out));
    }
    t.ck_q = cell.arc("CK", "Q");
    tables_.push_back(std::move(t));
  }
}

}  // namespace m3d::sta
