#include "circuit/netlist.hpp"

#include <algorithm>
#include <cassert>

#include "util/strf.hpp"

namespace m3d::circuit {

NetId Netlist::new_net(std::string net_name) {
  Net n;
  n.name = net_name.empty() ? util::strf("n%d", auto_net_++) : std::move(net_name);
  nets_.push_back(std::move(n));
  return static_cast<NetId>(nets_.size() - 1);
}

InstId Netlist::add_gate(cells::Func func, const std::vector<NetId>& ins,
                         const std::vector<NetId>& outs, int drive) {
  assert(static_cast<int>(ins.size()) == cells::num_inputs(func));
  assert(ins.size() == cells::input_pins(func).size());
  assert(outs.size() == cells::output_pins(func).size());
  const InstId id = static_cast<InstId>(instances_.size());
  Instance inst;
  inst.name = util::strf("u%d", id);
  inst.func = func;
  inst.drive = drive;
  inst.in_nets = ins;
  inst.out_nets = outs;
  instances_.push_back(std::move(inst));
  for (size_t i = 0; i < ins.size(); ++i) {
    nets_[static_cast<size_t>(ins[i])].sinks.push_back({id, static_cast<int>(i)});
  }
  for (size_t i = 0; i < outs.size(); ++i) {
    Net& n = nets_[static_cast<size_t>(outs[i])];
    assert(n.driver.inst == kInvalid && !n.is_primary_input);
    n.driver = {id, static_cast<int>(i)};
  }
  return id;
}

void Netlist::add_input_port(const std::string& port_name, NetId net_id) {
  ports_.push_back({port_name, true, net_id, {}});
  nets_[static_cast<size_t>(net_id)].is_primary_input = true;
}

void Netlist::add_output_port(const std::string& port_name, NetId net_id) {
  ports_.push_back({port_name, false, net_id, {}});
  nets_[static_cast<size_t>(net_id)].is_primary_output = true;
}

void Netlist::set_clock(NetId net_id) {
  clock_ = net_id;
  nets_[static_cast<size_t>(net_id)].is_clock = true;
}

void Netlist::bind(const liberty::Library& lib) {
  for (auto& inst : instances_) {
    if (inst.dead) continue;
    inst.libcell = lib.pick(inst.func, inst.drive);
    assert(inst.libcell != nullptr);
    inst.drive = inst.libcell->drive;
  }
}

void Netlist::resize_inst(InstId id, const liberty::Library& lib,
                          int new_drive) {
  Instance& i = inst(id);
  i.libcell = lib.pick(i.func, new_drive);
  assert(i.libcell != nullptr);
  i.drive = i.libcell->drive;
}

InstId Netlist::insert_buffer(NetId net_id, const std::vector<PinRef>& sink_subset,
                              const liberty::Library& lib, int drive) {
  const NetId out = new_net();
  Net& src = nets_[static_cast<size_t>(net_id)];
  // Detach the subset from the source net.
  for (const PinRef& s : sink_subset) {
    auto it = std::find_if(src.sinks.begin(), src.sinks.end(), [&](const PinRef& p) {
      return p.inst == s.inst && p.pin == s.pin;
    });
    assert(it != src.sinks.end());
    src.sinks.erase(it);
  }
  const InstId buf = add_gate(cells::Func::kBuf, {net_id}, {out}, drive);
  instances_[static_cast<size_t>(buf)].from_optimizer = true;
  Net& dst = nets_[static_cast<size_t>(out)];
  // add_gate already registered the buffer as the driver; attach sinks.
  for (const PinRef& s : sink_subset) {
    dst.sinks.push_back(s);
    Instance& si = instances_[static_cast<size_t>(s.inst)];
    si.in_nets[static_cast<size_t>(s.pin)] = out;
  }
  bind_one(buf, lib);
  return buf;
}

void Netlist::remove_buffer(InstId id) {
  Instance& b = inst(id);
  assert(b.func == cells::Func::kBuf && b.from_optimizer && !b.dead);
  const NetId in = b.in_nets[0];
  const NetId out = b.out_nets[0];
  Net& src = nets_[static_cast<size_t>(in)];
  Net& dst = nets_[static_cast<size_t>(out)];
  // Detach the buffer's input pin from the source net.
  auto it = std::find_if(src.sinks.begin(), src.sinks.end(), [&](const PinRef& p) {
    return p.inst == id;
  });
  assert(it != src.sinks.end());
  src.sinks.erase(it);
  // Move the buffer's sinks back.
  for (const PinRef& s : dst.sinks) {
    src.sinks.push_back(s);
    instances_[static_cast<size_t>(s.inst)].in_nets[static_cast<size_t>(s.pin)] = in;
  }
  dst.sinks.clear();
  dst.driver = {kInvalid, 0};
  b.dead = true;
}

void Netlist::move_sink(const PinRef& sink, NetId to) {
  Instance& inst = instances_[static_cast<size_t>(sink.inst)];
  const NetId from = inst.in_nets[static_cast<size_t>(sink.pin)];
  if (from == to) return;
  Net& src = nets_[static_cast<size_t>(from)];
  auto it = std::find_if(src.sinks.begin(), src.sinks.end(), [&](const PinRef& p) {
    return p.inst == sink.inst && p.pin == sink.pin;
  });
  assert(it != src.sinks.end());
  src.sinks.erase(it);
  nets_[static_cast<size_t>(to)].sinks.push_back(sink);
  inst.in_nets[static_cast<size_t>(sink.pin)] = to;
}

std::vector<InstId> Netlist::topo_order() const {
  const int n = num_instances();
  std::vector<int> pending(static_cast<size_t>(n), 0);
  std::vector<InstId> ready;
  for (InstId i = 0; i < n; ++i) {
    const Instance& gi = instances_[static_cast<size_t>(i)];
    if (gi.dead) continue;
    int deps = 0;
    if (!gi.sequential()) {
      for (NetId in : gi.in_nets) {
        const Net& net = nets_[static_cast<size_t>(in)];
        if (net.driver.inst != kInvalid &&
            !instances_[static_cast<size_t>(net.driver.inst)].sequential()) {
          ++deps;
        }
      }
    }
    pending[static_cast<size_t>(i)] = deps;
    if (deps == 0) ready.push_back(i);
  }
  std::vector<InstId> order;
  order.reserve(static_cast<size_t>(n));
  for (size_t head = 0; head < ready.size(); ++head) {
    const InstId id = ready[head];
    order.push_back(id);
    const Instance& gi = instances_[static_cast<size_t>(id)];
    // Sequential outputs were not counted as dependencies above (flops are
    // sources), so they must not decrement anyone either.
    if (gi.sequential()) continue;
    for (NetId out : gi.out_nets) {
      for (const PinRef& s : nets_[static_cast<size_t>(out)].sinks) {
        if (s.inst == kInvalid) continue;  // a primary-output pin
        const Instance& si = instances_[static_cast<size_t>(s.inst)];
        if (si.dead || si.sequential()) continue;
        if (--pending[static_cast<size_t>(s.inst)] == 0) ready.push_back(s.inst);
      }
    }
  }
  return order;
}

double Netlist::total_cell_area_um2() const {
  double a = 0.0;
  for (const auto& i : instances_) {
    if (!i.dead && i.libcell != nullptr) a += i.libcell->area_um2();
  }
  return a;
}

double Netlist::average_fanout() const {
  long total = 0;
  int nets_with_sinks = 0;
  for (const auto& n : nets_) {
    if (n.sinks.empty() || n.is_clock) continue;
    total += n.fanout();
    ++nets_with_sinks;
  }
  return nets_with_sinks > 0 ? static_cast<double>(total) / nets_with_sinks : 0.0;
}

int Netlist::count_buffers() const {
  int n = 0;
  for (const auto& i : instances_) {
    if (!i.dead && (i.func == cells::Func::kBuf || i.func == cells::Func::kInv)) {
      ++n;
    }
  }
  return n;
}

int Netlist::count_sequential() const {
  int n = 0;
  for (const auto& i : instances_) n += (!i.dead && i.sequential()) ? 1 : 0;
  return n;
}

int Netlist::num_signal_nets() const {
  int n = 0;
  for (const auto& net : nets_) {
    if (!net.is_clock && !net.sinks.empty()) ++n;
  }
  return n;
}

bool Netlist::validate() const {
  for (size_t ni = 0; ni < nets_.size(); ++ni) {
    const Net& n = nets_[ni];
    if (n.driver.inst != kInvalid) {
      const Instance& d = instances_[static_cast<size_t>(n.driver.inst)];
      if (d.dead) return false;
      if (d.out_nets[static_cast<size_t>(n.driver.pin)] != static_cast<NetId>(ni)) {
        return false;
      }
    }
    for (const PinRef& s : n.sinks) {
      const Instance& si = instances_[static_cast<size_t>(s.inst)];
      if (si.dead) return false;
      if (si.in_nets[static_cast<size_t>(s.pin)] != static_cast<NetId>(ni)) {
        return false;
      }
    }
  }
  // Reverse direction: every live instance pin appears in its net's lists.
  for (size_t ii = 0; ii < instances_.size(); ++ii) {
    const Instance& inst = instances_[ii];
    if (inst.dead) continue;
    for (size_t p = 0; p < inst.in_nets.size(); ++p) {
      const Net& n = nets_[static_cast<size_t>(inst.in_nets[p])];
      const bool found = std::any_of(
          n.sinks.begin(), n.sinks.end(), [&](const PinRef& s) {
            return s.inst == static_cast<InstId>(ii) &&
                   s.pin == static_cast<int>(p);
          });
      if (!found) return false;
    }
    for (size_t o = 0; o < inst.out_nets.size(); ++o) {
      const Net& n = nets_[static_cast<size_t>(inst.out_nets[o])];
      if (n.driver.inst != static_cast<InstId>(ii) ||
          n.driver.pin != static_cast<int>(o)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace m3d::circuit
