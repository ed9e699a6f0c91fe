// Flat transistor-level circuit for transient simulation.
//
// Sources are ground-referenced "driven nodes" (supplies and input stimuli),
// which keeps the system a pure nodal formulation: unknowns are the voltages
// of the undriven nodes only.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/mosfet.hpp"

namespace m3d::spice {

/// Piecewise-linear waveform: time (ps) -> volts. Clamps outside the range.
struct Pwl {
  std::vector<std::pair<double, double>> points;  // sorted by time

  static Pwl dc(double v) { return Pwl{{{0.0, v}}}; }
  /// A single ramp from v0 to v1 starting at t0 with the given transition
  /// time (ps).
  static Pwl ramp(double t0, double trans, double v0, double v1) {
    return Pwl{{{t0, v0}, {t0 + trans, v1}}};
  }
  double at(double t) const;
};

struct Resistor {
  int a, b;
  double r_kohm;
};
struct Capacitor {
  int a, b;
  double c_ff;
};
struct Mosfet {
  int d, g, s;
  double w_um;
  MosModel model;
};
struct Source {
  int node;
  Pwl wave;
};

class Circuit {
 public:
  /// Returns the node id for `name`, creating it on first use.
  /// Node "0" / "gnd" is ground (id 0).
  int node(const std::string& name);
  int num_nodes() const { return static_cast<int>(names_.size()); }
  /// Looks up an existing node; returns -1 if absent.
  int find_node(const std::string& name) const;

  void add_resistor(int a, int b, double r_kohm);
  void add_capacitor(int a, int b, double c_ff);
  void add_mosfet(int d, int g, int s, double w_um, const MosModel& model);
  /// Drives `node` with the waveform (supply or stimulus).
  void add_source(int node, Pwl wave);

  /// Value-only mutators for sweep templates: a characterization sweep
  /// clones one template circuit per grid point and rewrites element
  /// *values* in place, skipping node-map construction — and, because the
  /// topology is unchanged, every clone shares one sim::SimContext.
  /// Indices are positions in the corresponding element vector, in add
  /// order.
  void set_capacitor_ff(size_t idx, double c_ff) {
    capacitors_.at(idx).c_ff = c_ff;
  }
  void set_source_wave(size_t idx, Pwl wave) {
    sources_.at(idx).wave = std::move(wave);
  }

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  const std::vector<Source>& sources() const { return sources_; }

  /// Total MOS gate + diffusion cap attached to each node; the simulator adds
  /// these as grounded caps (a simplification of the full charge model).
  std::vector<double> device_node_cap() const;

 private:
  std::vector<std::string> names_{"0"};
  std::unordered_map<std::string, int> by_name_{{"0", 0}, {"gnd", 0}};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Mosfet> mosfets_;
  std::vector<Source> sources_;
};

}  // namespace m3d::spice
