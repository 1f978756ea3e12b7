#include "net/spatial_grid.h"

/// \file spatial_grid_scan_sse2.cpp
/// SSE2 distance kernel (baseline x86-64): four 2-lane vectors cover the
/// same 8 candidate lanes per iteration as the AVX2 kernel, accumulating the
/// identical 8-bit hit masks into the per-point hit word. Compiled with
/// -ffp-contract=off; arithmetic is lane-for-lane the scalar IEEE sequence.

#ifdef DTNIC_SIMD_X86

#include <emmintrin.h>

#include <algorithm>
#include <cmath>

#include "net/spatial_grid_scan_decode.h"

namespace dtnic::net {

void SpatialGrid::scan_kernel_sse2(const ScanView& view, double r2, std::vector<Pair>& out) {
  using scan_detail::kIntraMask;
  const __m128d vr2 = _mm_set1_pd(r2);
  // Emission staging — see the AVX2 kernel: bulk flushes replace per-pair
  // push_back bookkeeping.
  constexpr std::uint32_t kStage = 128;
  Pair staged[kStage];
  std::uint32_t staged_n = 0;
  const auto flush = [&staged, &staged_n, &out] {
    out.insert(out.end(), staged, staged + staged_n);
    staged_n = 0;
  };
  for (std::size_t c = 0; c < view.pool_size; ++c) {
    const std::uint32_t n = view.counts[c];
    if (n == 0) continue;
    const ScanBlock& cell = view.blocks[c];
    const CellLinks& links = view.links[c];
    // Branchless compacted segment gather — see the AVX2 kernel for the
    // rationale (predicated write cursor, all-dead padding for odd counts).
    const ScanBlock* segs[6];
    std::uint32_t seg_cell[6];  // pool index per segment, for the id lookup
    segs[0] = &cell;
    seg_cell[0] = static_cast<std::uint32_t>(c);
    bool fallback = n > kInline;
    int m = 1;
    for (int k = 0; k < 4; ++k) {
      const std::int32_t h = links.half[k];
      const auto idx = static_cast<std::uint32_t>(h >= 0 ? h : 0);
      fallback |= (h >= 0) & (view.counts[idx] > kInline);
      segs[m] = &view.blocks[idx];
      seg_cell[m] = idx;
      m += static_cast<int>(h >= 0);
    }
    segs[m] = &kEmptyBlock;
    seg_cell[m] = 0;  // never read: dead lanes cannot hit
    if (fallback) {
      scan_cell_scalar(view, static_cast<std::uint32_t>(c), r2, out);
      continue;
    }
    // Each segment is two 2-lane halves; [s].x[0..1], [s].x[2..3].
    __m128d vx[6][2];
    __m128d vy[6][2];
    const int padded = (m + 1) & ~1;
    for (int s = 0; s < padded; ++s) {
      vx[s][0] = _mm_load_pd(segs[s]->x);
      vx[s][1] = _mm_load_pd(segs[s]->x + 2);
      vy[s][0] = _mm_load_pd(segs[s]->y);
      vy[s][1] = _mm_load_pd(segs[s]->y + 2);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const double xi_s = cell.x[i];
      const double yi_s = cell.y[i];
      const __m128d xi = _mm_set1_pd(xi_s);
      const __m128d yi = _mm_set1_pd(yi_s);
      // Per-point accumulated hit word + scalar d² recompute on hit — see
      // the AVX2 kernel for the rationale.
      std::uint32_t pm = 0;
      for (int s = 0, g = 0; s < m; s += 2, ++g) {
        std::uint32_t mask = 0;
        for (int h = 0; h < 4; ++h) {  // four 2-lane halves = 8 candidates
          const int seg = s + (h >> 1);
          const int part = h & 1;
          const __m128d dx = _mm_sub_pd(xi, vx[seg][part]);
          const __m128d dy = _mm_sub_pd(yi, vy[seg][part]);
          const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
          mask |= static_cast<std::uint32_t>(_mm_movemask_pd(_mm_cmple_pd(d2, vr2)))
                  << (2 * h);
        }
        if (s == 0) mask &= kIntraMask[i] | 0xf0u;
        pm |= mask << (8 * g);
      }
      if (pm == 0) continue;
      const std::uint32_t ida = view.ids[c * kInline + i];
      if (staged_n + 24 > kStage) flush();  // a point adds ≤ 24 pairs
      do {
        const int lane = __builtin_ctz(pm);
        pm &= pm - 1;
        const int seg = lane >> 2;
        const int sub = lane & 3;
        const ScanBlock* sb = segs[seg];
        const double dx = xi_s - sb->x[sub];
        const double dy = yi_s - sb->y[sub];
        const double d2 = dx * dx + dy * dy;
        const std::uint32_t idb = view.ids[seg_cell[seg] * kInline + sub];
        const util::NodeId a{std::min(ida, idb)};
        const util::NodeId b{std::max(ida, idb)};
        staged[staged_n++] = Pair{a, b, d2};
      } while (pm != 0);
    }
  }
  flush();
  // Pairs leave the kernel carrying d²; sort_pairs applies the (scalar) √
  // during its scatter pass, one code path for every variant.
}

}  // namespace dtnic::net

#endif  // DTNIC_SIMD_X86
