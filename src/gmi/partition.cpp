#include "gmi/partition.hpp"

#include <algorithm>
#include <cassert>
#include <array>
#include <queue>

namespace m3d::gmi {
namespace {

struct FmState {
  const circuit::Netlist& nl;
  std::vector<int> tier;                 // per inst
  std::vector<double> area;              // per inst
  std::vector<std::vector<circuit::NetId>> nets_of;  // per inst
  std::vector<std::array<int, 2>> pins_in;           // per net: pins per tier
  double tier_area[2] = {0, 0};
  double total_area = 0;

  explicit FmState(const circuit::Netlist& netlist) : nl(netlist) {
    const int n = nl.num_instances();
    tier.assign(static_cast<size_t>(n), -1);
    area.assign(static_cast<size_t>(n), 0.0);
    nets_of.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      const auto& inst = nl.inst(i);
      if (inst.dead) continue;
      area[static_cast<size_t>(i)] =
          inst.libcell != nullptr ? inst.libcell->area_um2() : 1.0;
      total_area += area[static_cast<size_t>(i)];
    }
    pins_in.assign(static_cast<size_t>(nl.num_nets()), {0, 0});
    for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) {
      const auto& net = nl.net(nid);
      if (net.is_clock || net.sinks.empty()) continue;
      if (net.driver.inst != circuit::kInvalid) {
        nets_of[static_cast<size_t>(net.driver.inst)].push_back(nid);
      }
      for (const auto& s : net.sinks) {
        if (s.inst != circuit::kInvalid) {
          nets_of[static_cast<size_t>(s.inst)].push_back(nid);
        }
      }
    }
  }

  void assign(int inst, int t) {
    assert(tier[static_cast<size_t>(inst)] == -1);
    tier[static_cast<size_t>(inst)] = t;
    tier_area[t] += area[static_cast<size_t>(inst)];
    for (circuit::NetId nid : nets_of[static_cast<size_t>(inst)]) {
      ++pins_in[static_cast<size_t>(nid)][static_cast<size_t>(t)];
    }
  }

  /// Cut-size change if `inst` moves to the other tier (negative = better).
  int gain(int inst) const {
    const int from = tier[static_cast<size_t>(inst)];
    const int to = 1 - from;
    int g = 0;
    for (circuit::NetId nid : nets_of[static_cast<size_t>(inst)]) {
      const auto& p = pins_in[static_cast<size_t>(nid)];
      // Net becomes uncut if this was the only pin on `from`.
      if (p[static_cast<size_t>(from)] == 1 && p[static_cast<size_t>(to)] > 0) ++g;
      // Net becomes cut if it was entirely on `from`.
      if (p[static_cast<size_t>(to)] == 0 && p[static_cast<size_t>(from)] > 1) --g;
    }
    return g;
  }

  void move(int inst) {
    const int from = tier[static_cast<size_t>(inst)];
    const int to = 1 - from;
    tier[static_cast<size_t>(inst)] = to;
    tier_area[from] -= area[static_cast<size_t>(inst)];
    tier_area[to] += area[static_cast<size_t>(inst)];
    for (circuit::NetId nid : nets_of[static_cast<size_t>(inst)]) {
      --pins_in[static_cast<size_t>(nid)][static_cast<size_t>(from)];
      ++pins_in[static_cast<size_t>(nid)][static_cast<size_t>(to)];
    }
  }

  int cut() const {
    int c = 0;
    for (const auto& p : pins_in) c += (p[0] > 0 && p[1] > 0) ? 1 : 0;
    return c;
  }
};

}  // namespace

PartitionResult partition_tiers(const circuit::Netlist& nl) {
  // Allowed area imbalance between the tiers (fraction of the total), and
  // the number of FM passes.
  constexpr double kBalanceTolerance = 0.1;
  constexpr int kPasses = 6;
  FmState st(nl);
  // Initial: BFS-ish fill by instance order keeps connected logic together
  // better than random; alternate once half the area is placed.
  std::vector<int> order;
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (!nl.inst(i).dead) order.push_back(i);
  }
  double acc = 0;
  for (int i : order) {
    const int t = acc < st.total_area / 2 ? 0 : 1;
    st.assign(i, t);
    acc += st.area[static_cast<size_t>(i)];
  }

  const double max_tier_area =
      st.total_area * (0.5 + kBalanceTolerance / 2);

  // FM passes: repeatedly move the best-gain cell that keeps balance; lock
  // each cell once per pass; roll back to the best prefix. A lazy max-heap
  // keeps passes near-linear: popped entries whose gain went stale are
  // re-inserted with their fresh gain instead of being applied.
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<bool> locked(static_cast<size_t>(nl.num_instances()), false);
    std::priority_queue<std::pair<int, int>> heap;  // (gain, inst)
    for (int i : order) heap.push({st.gain(i), i});
    std::vector<int> moves;
    int best_prefix = 0;
    int cum_gain = 0, best_gain = 0;
    while (!heap.empty()) {
      const auto [g_stale, best] = heap.top();
      heap.pop();
      if (locked[static_cast<size_t>(best)]) continue;
      const int g = st.gain(best);
      if (g < g_stale) {
        heap.push({g, best});  // stale: requeue with the fresh gain
        continue;
      }
      const int to = 1 - st.tier[static_cast<size_t>(best)];
      if (st.tier_area[to] + st.area[static_cast<size_t>(best)] > max_tier_area) {
        locked[static_cast<size_t>(best)] = true;  // cannot move this pass
        continue;
      }
      st.move(best);
      locked[static_cast<size_t>(best)] = true;
      moves.push_back(best);
      cum_gain += g;
      if (cum_gain > best_gain) {
        best_gain = cum_gain;
        best_prefix = static_cast<int>(moves.size());
      }
      // Early exit when clearly past the peak.
      if (cum_gain < best_gain - 50) break;
    }
    // Roll back moves after the best prefix.
    for (size_t k = moves.size(); k > static_cast<size_t>(best_prefix); --k) {
      st.move(moves[k - 1]);
    }
    if (best_gain <= 0) break;
  }

  PartitionResult res;
  res.tier_of = st.tier;
  res.cut_nets = st.cut();
  res.area_imbalance =
      std::abs(st.tier_area[0] - st.tier_area[1]) / std::max(st.total_area, 1e-9);
  return res;
}

bool is_cut_net(const circuit::Netlist& nl, circuit::NetId n,
                const std::vector<int>& tier_of) {
  const circuit::Net& net = nl.net(n);
  if (net.is_clock || net.sinks.empty()) return false;
  bool on[2] = {false, false};
  const auto mark = [&](circuit::InstId i) {
    if (i == circuit::kInvalid || i >= static_cast<int>(tier_of.size())) {
      return;
    }
    const int t = tier_of[static_cast<size_t>(i)];
    if (t == 0 || t == 1) on[t] = true;
  };
  mark(net.driver.inst);
  for (const auto& s : net.sinks) mark(s.inst);
  return on[0] && on[1];
}

int count_cut_nets(const circuit::Netlist& nl, const std::vector<int>& tier_of) {
  int cut = 0;
  for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) {
    cut += is_cut_net(nl, nid, tier_of) ? 1 : 0;
  }
  return cut;
}

int add_cut_mivs(const circuit::Netlist& nl, const std::vector<int>& tier_of,
                 const tech::Tech& tch, extract::Parasitics* par) {
  const tech::CutLayer& miv = tch.cut(tch.miv_cut_index());
  int stamped = 0;
  for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) {
    if (!is_cut_net(nl, nid, tier_of)) continue;
    (*par)[static_cast<size_t>(nid)].wire_cap_ff += miv.c_ff;
    (*par)[static_cast<size_t>(nid)].wire_res_kohm += miv.r_kohm;
    ++stamped;
  }
  return stamped;
}

}  // namespace m3d::gmi
