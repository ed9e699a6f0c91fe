#include "route/schedule.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace m3d::route {
namespace {

/// Tiles per grid side of the batch index: 12-gcell tiles on the router's
/// 96-gcell grid. Its windows span at least 25 gcells, so each covers whole
/// tiles and touches about a dozen. On the windows of a paper-scale LDPC
/// run, 8 tiles per side scheduled fastest of 8 to 48: finer tiles read
/// more words per 64 batches than they save in exact checks.
constexpr int kTilesPerSide = 8;

}  // namespace

// The index keeps, per tile and per batch, two bits: `touch` (some member
// of the batch shares a gcell with the tile) and `full` (some member covers
// the whole tile). For a window w:
//   * a batch with a `full` bit on a tile w touches, or a `touch` bit on a
//     tile w covers, has a member sharing a gcell with w: it clashes;
//   * a batch with no `touch` bit on any tile w touches has no member
//     sharing a gcell with w: it is free;
//   * any other batch is checked exactly against its members.
// The bits are stored 64 batches to a word, word-major (word k of every
// tile is contiguous), so finding the lowest free batch reads the words of
// w's tiles 64 batches at a time and stops at the first word that holds a
// free one.
Schedule schedule_batches(const std::vector<Window>& windows, int nx, int ny) {
  const int tile = std::max(1, (std::max(nx, ny) + kTilesPerSide - 1) / kTilesPerSide);
  const int tiles_x = (nx + tile - 1) / tile;
  const int tiles_y = (ny + tile - 1) / tile;
  const size_t ntiles = static_cast<size_t>(tiles_x * tiles_y);
  std::vector<uint64_t> touch, full;  // word k of tile t at k * ntiles + t
  std::vector<int> last_member;       // per batch: its latest window
  std::vector<int> prev_member(windows.size(), -1);  // per window: the one before
  std::vector<int> batch_of(windows.size(), 0);
  std::vector<size_t> touched, covered;  // the current window's tiles
  int batches = 0;

  // True when no member of batch `b` overlaps `w`.
  auto fits = [&](int b, const Window& w) {
    for (int m = last_member[static_cast<size_t>(b)]; m >= 0;
         m = prev_member[static_cast<size_t>(m)]) {
      if (overlaps(windows[static_cast<size_t>(m)], w)) return false;
    }
    return true;
  };

  for (size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    touched.clear();
    covered.clear();
    for (int ty = w.ylo / tile; ty <= w.yhi / tile; ++ty) {
      const bool rows_in = ty * tile >= w.ylo && std::min(ny, (ty + 1) * tile) - 1 <= w.yhi;
      for (int tx = w.xlo / tile; tx <= w.xhi / tile; ++tx) {
        const size_t t = static_cast<size_t>(ty * tiles_x + tx);
        touched.push_back(t);
        if (rows_in && tx * tile >= w.xlo && std::min(nx, (tx + 1) * tile) - 1 <= w.xhi) {
          covered.push_back(t);
        }
      }
    }
    int b = -1;
    for (size_t k = 0; b < 0; ++k) {
      if (static_cast<int>(k * 64) >= batches) {
        b = batches;
        break;
      }
      const uint64_t* tw = touch.data() + k * ntiles;
      const uint64_t* fw = full.data() + k * ntiles;
      uint64_t maybe = 0, clash = 0;
      for (size_t t : touched) {
        maybe |= tw[t];
        clash |= fw[t];
      }
      for (size_t t : covered) clash |= tw[t];
      // Batches past the last one have no bits, so they read as free and
      // end the search with a new batch.
      for (uint64_t cand = ~clash; cand != 0; cand &= cand - 1) {
        const int bit = __builtin_ctzll(cand);
        const int c = static_cast<int>(k * 64) + bit;
        if (c >= batches || ((maybe >> bit) & 1) == 0 || fits(c, w)) {
          b = std::min(c, batches);
          break;
        }
      }
    }
    if (b == batches) {
      if (batches % 64 == 0) {
        touch.resize(touch.size() + ntiles, 0);
        full.resize(full.size() + ntiles, 0);
      }
      last_member.push_back(-1);
      ++batches;
    }
    batch_of[i] = b;
    prev_member[i] = last_member[static_cast<size_t>(b)];
    last_member[static_cast<size_t>(b)] = static_cast<int>(i);
    const size_t word = static_cast<size_t>(b / 64) * ntiles;
    const uint64_t mask = uint64_t{1} << (b % 64);
    for (size_t t : touched) touch[word + t] |= mask;
    for (size_t t : covered) full[word + t] |= mask;
  }

  // CSR by batch; a counting sort keeps each batch's members in order.
  Schedule s;
  s.start.assign(static_cast<size_t>(batches) + 1, 0);
  for (int b : batch_of) ++s.start[static_cast<size_t>(b) + 1];
  for (size_t k = 1; k < s.start.size(); ++k) s.start[k] += s.start[k - 1];
  s.members.resize(windows.size());
  std::vector<int> cursor(s.start.begin(), s.start.end() - 1);
  for (size_t i = 0; i < windows.size(); ++i) {
    s.members[static_cast<size_t>(cursor[static_cast<size_t>(batch_of[i])]++)] =
        static_cast<int>(i);
  }
  return s;
}

}  // namespace m3d::route
