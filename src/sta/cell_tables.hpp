// Index-addressed views of the LibCells bound in a netlist: input-pin caps
// by pin index and timing arcs by (input, output) pin index, resolved once
// per distinct (LibCell, function) from the cell's name-keyed pin-cap map
// and arc list. STA and power read these instead of looking pins and arcs
// up by name per sink and per arc. Callers build them per analysis call,
// so a copied or rebuilt library never leaves a stale pointer behind.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/netlist.hpp"
#include "liberty/library.hpp"

namespace m3d::sta {

struct CellTable {
  size_t num_in = 0;
  /// By input pin index (cells::input_pins order); 0 for an unknown pin.
  std::vector<double> pin_cap_ff;
  /// By out * num_in + in (cells::output_pins x input_pins); null: no arc.
  std::vector<const liberty::TimingArc*> arcs;
  /// CK -> Q, or null (combinational cells).
  const liberty::TimingArc* ck_q = nullptr;

  const liberty::TimingArc* arc(size_t in, size_t out) const {
    return arcs[out * num_in + in];
  }
};

class CellTables {
 public:
  explicit CellTables(const circuit::Netlist& nl);

  /// The table of instance `id`, or null when it has no libcell.
  const CellTable* of(circuit::InstId id) const {
    const int t = table_of_[static_cast<size_t>(id)];
    return t < 0 ? nullptr : &tables_[static_cast<size_t>(t)];
  }
  /// Cap of input pin `pin` of instance `id`; 0 when it has no libcell.
  double pin_cap_ff(circuit::InstId id, int pin) const {
    const CellTable* t = of(id);
    return t == nullptr ? 0.0 : t->pin_cap_ff[static_cast<size_t>(pin)];
  }

 private:
  std::vector<CellTable> tables_;
  std::vector<int> table_of_;  // by InstId; -1 without a libcell
};

}  // namespace m3d::sta
