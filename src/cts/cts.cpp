#include "cts/cts.hpp"

#include <algorithm>
#include <functional>

#include "util/log.hpp"
#include "util/strf.hpp"

namespace m3d::cts {
namespace {

constexpr int kBufferDrive = 4;  // every clock-tree buffer is a BUF_X4

struct Sink {
  circuit::PinRef pin;
  geom::Pt pos;
};

struct Node {
  circuit::InstId buf = circuit::kInvalid;
  geom::Pt pos;
  int depth = 1;
};

}  // namespace

CtsResult build_clock_tree(circuit::Netlist* nl, const liberty::Library& lib,
                           const CtsOptions& opt) {
  CtsResult res;
  const circuit::NetId clk = nl->clock_net();
  if (clk == circuit::kInvalid) return res;

  // Collect the DFF clock pins currently hanging off the clock net.
  std::vector<Sink> sinks;
  for (const auto& pin : nl->net(clk).sinks) {
    if (pin.inst == circuit::kInvalid) continue;
    const auto& inst = nl->inst(pin.inst);
    if (inst.dead || !inst.sequential()) continue;
    sinks.push_back({pin, inst.pos});
  }
  res.sinks = static_cast<int>(sinks.size());
  if (sinks.size() < 2) return res;

  // Recursive geometric bisection; leaves get one buffer per cluster,
  // internal levels get one buffer per pair of children.
  std::function<Node(size_t, size_t, bool)> build = [&](size_t lo, size_t hi,
                                                        bool split_x) -> Node {
    const size_t count = hi - lo;
    geom::Pt centroid{0, 0};
    for (size_t i = lo; i < hi; ++i) centroid += sinks[i].pos;
    centroid = centroid * (1.0 / static_cast<double>(count));

    Node node;
    node.pos = centroid;
    const circuit::NetId in = nl->new_net();
    const circuit::NetId out = nl->new_net();
    node.buf = nl->add_gate(cells::Func::kBuf, {in}, {out}, kBufferDrive);
    auto& binst = nl->inst(node.buf);
    binst.from_optimizer = true;
    binst.pos = centroid;
    binst.placed = true;
    nl->resize_inst(node.buf, lib, kBufferDrive);
    if (opt.die != nullptr) {
      auto& bound = nl->inst(node.buf);
      bound.pos = place::snap_to_row(
          *opt.die, bound.pos,
          bound.libcell != nullptr ? bound.libcell->width_um : 0.0);
    }
    ++res.buffers_added;

    if (count <= static_cast<size_t>(opt.max_sinks_per_buffer)) {
      for (size_t i = lo; i < hi; ++i) nl->move_sink(sinks[i].pin, out);
      return node;
    }
    std::sort(sinks.begin() + static_cast<long>(lo),
              sinks.begin() + static_cast<long>(hi),
              [&](const Sink& a, const Sink& b) {
                return split_x ? a.pos.x < b.pos.x : a.pos.y < b.pos.y;
              });
    const size_t mid = lo + count / 2;
    const Node left = build(lo, mid, !split_x);
    const Node right = build(mid, hi, !split_x);
    nl->move_sink({left.buf, 0}, out);
    nl->move_sink({right.buf, 0}, out);
    node.depth = 1 + std::max(left.depth, right.depth);
    return node;
  };

  const Node root = build(0, sinks.size(), true);
  // The root buffer hangs off the (ideal) clock source net.
  nl->move_sink({root.buf, 0}, clk);
  res.levels = root.depth;
  util::debug(util::strf("cts: %d sinks, %d buffers, %d levels", res.sinks,
                         res.buffers_added, res.levels));
  return res;
}

}  // namespace m3d::cts
