#include <algorithm>
#include <cmath>

#include "net/spatial_grid.h"

/// \file spatial_grid_scan_scalar.cpp
/// Reference distance kernel, compiled with -ffp-contract=off so the d²
/// expression is the exact IEEE sequence (sub, sub, mul, mul, add) the SIMD
/// lanes compute — the foundation of the bit-identical-variants guarantee.
/// Also provides scan_cell_scalar, the per-cell fallback the SIMD kernels
/// take for the rare cells whose neighborhood touches overflow entries.

namespace dtnic::net {

namespace {

struct EntryView {
  double x;
  double y;
  std::uint32_t id;
};

}  // namespace

void SpatialGrid::scan_cell_scalar(const ScanView& view, std::uint32_t c, double r2,
                                   std::vector<Pair>& out) {
  const auto at = [&view](std::uint32_t cell_index, std::uint32_t i) -> EntryView {
    const ScanBlock& b = view.blocks[cell_index];
    if (i < kInline) return EntryView{b.x[i], b.y[i], view.ids[cell_index * kInline + i]};
    const Entry& e = view.pool[cell_index].overflow[i - kInline];
    return EntryView{view.xs[e.slot], view.ys[e.slot], e.id.value()};
  };
  const auto emit = [r2, &out](const EntryView& lhs, const EntryView& rhs) {
    const double dx = lhs.x - rhs.x;
    const double dy = lhs.y - rhs.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 > r2) return;
    const util::NodeId lo{std::min(lhs.id, rhs.id)};
    const util::NodeId hi{std::max(lhs.id, rhs.id)};
    // distance_m holds d² until sort_pairs' scatter applies the √ — one
    // conversion for every kernel, including the SIMD fallback landing here.
    out.push_back(Pair{lo, hi, d2});
  };
  const std::uint32_t n = view.counts[c];
  for (std::uint32_t i = 0; i < n; ++i) {
    const EntryView mine = at(c, i);
    for (std::uint32_t j = i + 1; j < n; ++j) emit(mine, at(c, j));
  }
  for (const std::int32_t other_index : view.links[c].half) {
    if (other_index < 0) continue;
    const auto other = static_cast<std::uint32_t>(other_index);
    for (std::uint32_t i = 0; i < n; ++i) {
      const EntryView mine = at(c, i);
      for (std::uint32_t j = 0; j < view.counts[other]; ++j) emit(mine, at(other, j));
    }
  }
}

void SpatialGrid::scan_kernel_scalar(const ScanView& view, double r2,
                                     std::vector<Pair>& out) {
  // Freed pool entries keep counts[c] == 0, so one dense sweep of the
  // L1-resident count array visits exactly the live cells without consulting
  // the hash map at all. A cell emits its interior pairs plus all pairs
  // against its half-neighborhood, so each unordered pair is emitted by
  // exactly one cell.
  for (std::size_t c = 0; c < view.pool_size; ++c) {
    if (view.counts[c] == 0) continue;
    scan_cell_scalar(view, static_cast<std::uint32_t>(c), r2, out);
  }
  // Pairs leave every kernel carrying d²; sort_pairs applies the √ during
  // its scatter pass, one code path for every variant.
}

}  // namespace dtnic::net
