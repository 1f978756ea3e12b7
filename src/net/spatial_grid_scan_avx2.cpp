#include "net/spatial_grid.h"

/// \file spatial_grid_scan_avx2.cpp
/// AVX2 distance kernel: one 4-lane vector per cell segment, two segments
/// per iteration → an 8-wide distance² test whose compare masks accumulate
/// into one per-point hit word. Compiled with -mavx2 -ffp-contract=off; the per-lane
/// arithmetic (sub, sub, mul, mul, add) is the exact IEEE sequence of the
/// scalar kernel — and the √ happens once for every variant inside
/// sort_pairs — so hits and distances are bit-identical.

#ifdef DTNIC_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "net/spatial_grid_scan_decode.h"

namespace dtnic::net {

void SpatialGrid::scan_kernel_avx2(const ScanView& view, double r2, std::vector<Pair>& out) {
  using scan_detail::kIntraMask;
  const __m256d vr2 = _mm256_set1_pd(r2);
  // Emission staging: hits land in an L1-resident stack buffer and reach
  // `out` in bulk flushes, so the decode path pays one store per pair
  // instead of a capacity check + size update per push_back.
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
    // Gather the candidate segments: the cell itself (segment 0, with the
    // intra mask keeping only j > i) plus its *present* half-neighborhood
    // directions, compacted to the front so absent directions cost no
    // distance work at all. The compaction is branchless — every direction
    // stores unconditionally at the write cursor, and only the cursor
    // increment is predicated — so the effectively random presence pattern
    // never touches the branch predictor. An odd segment count is padded
    // with the static all-dead block (its +inf lanes cannot pass the radius
    // test), giving ceil(live/2) 8-wide groups instead of a fixed three.
    // Overflow is detected from the L1-resident count array (value masked
    // by presence; the load itself is safe — index 0 is a valid pool slot);
    // any overflowing cell in the set routes the whole cell through the
    // scalar fallback — identical arithmetic, so no determinism seam.
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
    __m256d vx[6];
    __m256d vy[6];
    const int padded = (m + 1) & ~1;
    for (int s = 0; s < padded; ++s) {
      vx[s] = _mm256_load_pd(segs[s]->x);
      vy[s] = _mm256_load_pd(segs[s]->y);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const double xi_s = cell.x[i];
      const double yi_s = cell.y[i];
      const __m256d xi = _mm256_set1_pd(xi_s);
      const __m256d yi = _mm256_set1_pd(yi_s);
      // Accumulate every group's hit bits into one word — bit (8g + lane)
      // set means candidate lane `lane` of group g is within range — so the
      // whole point costs a single (mispredict-prone) branch instead of one
      // per group, and the common no-hit point falls through branch-free.
      std::uint32_t pm = 0;
      for (int s = 0, g = 0; s < m; s += 2, ++g) {
        const __m256d dx0 = _mm256_sub_pd(xi, vx[s]);
        const __m256d dy0 = _mm256_sub_pd(yi, vy[s]);
        const __m256d d20 = _mm256_add_pd(_mm256_mul_pd(dx0, dx0), _mm256_mul_pd(dy0, dy0));
        const __m256d dx1 = _mm256_sub_pd(xi, vx[s + 1]);
        const __m256d dy1 = _mm256_sub_pd(yi, vy[s + 1]);
        const __m256d d21 = _mm256_add_pd(_mm256_mul_pd(dx1, dx1), _mm256_mul_pd(dy1, dy1));
        auto lo_bits =
            static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(d20, vr2, _CMP_LE_OQ)));
        const auto hi_bits =
            static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(d21, vr2, _CMP_LE_OQ)));
        if (s == 0) lo_bits &= kIntraMask[i];
        pm |= (lo_bits | (hi_bits << 4)) << (8 * g);
      }
      if (pm == 0) continue;
      // Emission iterates the set bits (ascending, matching the old
      // table-decode order). d² is recomputed per hit from the scalar lane
      // values — the identical IEEE expression the vector lanes evaluated
      // (-ffp-contract=off), so the value is bit-identical, and recomputing
      // beats spilling the vector registers: no stores on the no-hit path
      // and no store-to-load-forwarding stall on the hit path.
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
