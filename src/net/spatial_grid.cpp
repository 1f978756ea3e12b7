#include "net/spatial_grid.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/assert.h"

namespace dtnic::net {

namespace {

[[nodiscard]] std::uint64_t pair_key(const SpatialGrid::Pair& p) {
  return (static_cast<std::uint64_t>(p.a.value()) << 32) | p.b.value();
}

using Variant = SpatialGrid::ScanVariant;

[[nodiscard]] bool variant_supported(Variant v) {
  switch (v) {
    case Variant::kScalar:
      return true;
#ifdef DTNIC_SIMD_X86
    case Variant::kSse2:
      return true;  // baseline x86-64
    case Variant::kAvx2:
      return __builtin_cpu_supports("avx2");
#else
    case Variant::kSse2:
    case Variant::kAvx2:
      return false;
#endif
  }
  return false;
}

[[nodiscard]] Variant best_supported() {
  if (variant_supported(Variant::kAvx2)) return Variant::kAvx2;
  if (variant_supported(Variant::kSse2)) return Variant::kSse2;
  return Variant::kScalar;
}

/// Process-wide active variant; -1 until first resolved. Resolution honors
/// DTNIC_SCAN_VARIANT (scalar|sse2|avx2|auto) and falls back to the best
/// supported kernel on unknown or unsupported values.
std::atomic<int> g_scan_variant{-1};

[[nodiscard]] Variant resolve_variant() {
  int v = g_scan_variant.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Variant>(v);
  Variant chosen = best_supported();
  if (const char* env = std::getenv("DTNIC_SCAN_VARIANT")) {
    Variant wanted = chosen;
    if (std::strcmp(env, "scalar") == 0) wanted = Variant::kScalar;
    else if (std::strcmp(env, "sse2") == 0) wanted = Variant::kSse2;
    else if (std::strcmp(env, "avx2") == 0) wanted = Variant::kAvx2;
    if (variant_supported(wanted)) chosen = wanted;
  }
  g_scan_variant.store(static_cast<int>(chosen), std::memory_order_relaxed);
  return chosen;
}

}  // namespace

const SpatialGrid::ScanBlock SpatialGrid::kEmptyBlock{};

SpatialGrid::ScanVariant SpatialGrid::scan_variant() { return resolve_variant(); }

bool SpatialGrid::set_scan_variant(ScanVariant v) {
  if (!variant_supported(v)) return false;
  g_scan_variant.store(static_cast<int>(v), std::memory_order_relaxed);
  return true;
}

const char* SpatialGrid::scan_variant_name(ScanVariant v) {
  switch (v) {
    case ScanVariant::kScalar:
      return "scalar";
    case ScanVariant::kSse2:
      return "sse2";
    case ScanVariant::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::vector<SpatialGrid::ScanVariant> SpatialGrid::supported_scan_variants() {
  std::vector<ScanVariant> out;
  for (const Variant v : {Variant::kScalar, Variant::kSse2, Variant::kAvx2}) {
    if (variant_supported(v)) out.push_back(v);
  }
  return out;
}

SpatialGrid::SpatialGrid(double cell_size)
    : cell_size_(cell_size), inv_cell_size_(1.0 / cell_size) {
  DTNIC_REQUIRE_MSG(cell_size > 0.0, "cell size must be positive");
}

void SpatialGrid::clear() {
  pool_.clear();
  blocks_.clear();
  counts_.clear();
  links_.clear();
  ids_.clear();
  free_cells_.clear();
  cell_index_.clear();
  slots_.clear();
  xs_.clear();
  ys_.clear();
  slot_of_.clear();
  max_id_ = 0;
}

/// Sort pairs by (a, b) and finalize distances. The kernels emit d² (a sqrt
/// per emission would serialize their decode path through the unpipelined
/// divider); the √ happens here, folded into the scatter pass so it rides
/// along with stores the sort performs anyway instead of costing a separate
/// read-modify-write sweep of the whole pair vector. Every kernel variant
/// funnels through this one scalar std::sqrt, so distances are bit-identical
/// across variants by construction.
///
/// Simulations use small dense node ids, so the common case is one
/// id-indexed counting pass (the bucket array stays L1-resident) followed by
/// insertion sort of the tiny equal-a runs — far cheaper than a comparison
/// sort of the effectively random pool-order input. Sparse id spaces fall
/// back to std::sort on the packed key.
void SpatialGrid::sort_pairs(std::vector<Pair>& v) const {
  std::vector<Pair>& scratch = sort_scratch_;
  std::vector<std::uint32_t>& offsets = sort_offsets_;
  const std::size_t n = v.size();
  const std::size_t buckets = static_cast<std::size_t>(max_id_) + 2;
  if (n < 2 || n <= 64 || buckets > std::max<std::size_t>(4096, 16 * slots_.size())) {
    for (Pair& p : v) p.distance_m = std::sqrt(p.distance_m);
    if (n < 2) return;
    std::sort(v.begin(), v.end(),
              [](const Pair& lhs, const Pair& rhs) { return pair_key(lhs) < pair_key(rhs); });
    return;
  }
  offsets.assign(buckets, 0);
  for (const Pair& p : v) ++offsets[p.a.value() + 1];
  for (std::size_t i = 1; i < buckets; ++i) offsets[i] += offsets[i - 1];
  scratch.resize(n);
  for (const Pair& p : v) {
    scratch[offsets[p.a.value()]++] = Pair{p.a, p.b, std::sqrt(p.distance_m)};
  }
  // After the scatter, offsets[a] is the end of a's run; order each run by
  // b (runs hold the handful of neighbors one node has in range).
  std::size_t begin = 0;
  for (std::size_t a = 0; a + 1 < buckets; ++a) {
    const std::size_t end = offsets[a];
    for (std::size_t i = begin + 1; i < end; ++i) {
      const Pair p = scratch[i];
      std::size_t j = i;
      while (j > begin && scratch[j - 1].b > p.b) {
        scratch[j] = scratch[j - 1];
        --j;
      }
      scratch[j] = p;
    }
    begin = end;
  }
  v.swap(scratch);
}

std::uint32_t SpatialGrid::cell_at(std::int32_t cx, std::int32_t cy) {
  const auto [it, created] = cell_index_.try_emplace(key_of(cx, cy), 0);
  if (!created) return it->second;
  std::uint32_t index;
  if (!free_cells_.empty()) {
    index = free_cells_.back();
    free_cells_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
    blocks_.emplace_back();
    counts_.push_back(0);
    links_.emplace_back();
    ids_.resize(ids_.size() + kInline, 0);
  }
  it->second = index;
  Cell& cell = pool_[index];
  CellLinks& links = links_[index];
  cell.cx = cx;
  cell.cy = cy;
  counts_[index] = 0;
  // Lane invariant: a cell entering the free list had every entry removed,
  // and each removal restored the vacated lane to +inf — so both fresh and
  // recycled blocks arrive here with all-dead lanes already.
  // Link the half-neighborhood both ways so pair enumeration and pruning
  // can walk pool indices instead of doing hash lookups per cell per scan.
  for (int k = 0; k < 4; ++k) {
    links.half[k] = -1;
    cell.rev[k] = -1;
    if (const auto fwd = cell_index_.find(key_of(cx + kHalf[k][0], cy + kHalf[k][1]));
        fwd != cell_index_.end()) {
      links.half[k] = static_cast<std::int32_t>(fwd->second);
      pool_[fwd->second].rev[k] = static_cast<std::int32_t>(index);
    }
    if (const auto rev = cell_index_.find(key_of(cx - kHalf[k][0], cy - kHalf[k][1]));
        rev != cell_index_.end()) {
      cell.rev[k] = static_cast<std::int32_t>(rev->second);
      links_[rev->second].half[k] = static_cast<std::int32_t>(index);
    }
  }
  return index;
}

void SpatialGrid::place(std::uint32_t slot, std::uint32_t cell_index) {
  Cell& cell = pool_[cell_index];
  ScanBlock& block = blocks_[cell_index];
  const std::uint32_t count = counts_[cell_index];
  Slot& s = slots_[slot];
  s.cell = static_cast<std::int32_t>(cell_index);
  s.index = count;
  s.cx = cell.cx;
  s.cy = cell.cy;
  if (count < kInline) {
    block.x[count] = xs_[slot];
    block.y[count] = ys_[slot];
    ids_[cell_index * kInline + count] = s.id.value();
    cell.slot[count] = slot;
  } else {
    cell.overflow.push_back(Entry{s.id, slot});
  }
  counts_[cell_index] = count + 1;
}

void SpatialGrid::unplace(std::uint32_t slot) {
  const std::int32_t cell_index = slots_[slot].cell;
  Cell& cell = pool_[static_cast<std::uint32_t>(cell_index)];
  ScanBlock& block = blocks_[static_cast<std::uint32_t>(cell_index)];
  const std::uint32_t index = slots_[slot].index;
  const std::uint32_t last = counts_[static_cast<std::uint32_t>(cell_index)] - 1;
  if (index != last) {
    // Swap-remove: the last entry (inline lane or overflow) fills the hole.
    Entry moved;
    if (last < kInline) {
      moved = Entry{util::NodeId(ids_[static_cast<std::uint32_t>(cell_index) * kInline + last]),
                    cell.slot[last]};
    } else {
      moved = cell.overflow.back();
    }
    if (index < kInline) {
      block.x[index] = xs_[moved.slot];
      block.y[index] = ys_[moved.slot];
      ids_[static_cast<std::uint32_t>(cell_index) * kInline + index] = moved.id.value();
      cell.slot[index] = moved.slot;
    } else {
      cell.overflow[index - kInline] = moved;
    }
    slots_[moved.slot].index = index;
  }
  if (last >= kInline) cell.overflow.pop_back();
  counts_[static_cast<std::uint32_t>(cell_index)] = last;
  if (last < kInline) {
    // Restore the lane invariant for the vacated inline lane.
    block.x[last] = kLaneEmpty;
    block.y[last] = kLaneEmpty;
  }
  if (last == 0) {
    // Prune: unlink the whole neighborhood through the stored reciprocal
    // indices, then recycle the pool entry.
    CellLinks& links = links_[static_cast<std::uint32_t>(cell_index)];
    for (int k = 0; k < 4; ++k) {
      if (links.half[k] >= 0) pool_[static_cast<std::uint32_t>(links.half[k])].rev[k] = -1;
      if (cell.rev[k] >= 0) links_[static_cast<std::uint32_t>(cell.rev[k])].half[k] = -1;
    }
    cell_index_.erase(key_of(cell.cx, cell.cy));
    free_cells_.push_back(static_cast<std::uint32_t>(cell_index));
  }
}

std::size_t SpatialGrid::insert(util::NodeId id, util::Vec2 position) {
  DTNIC_REQUIRE(id.valid());
  DTNIC_REQUIRE_MSG(!slot_of_.count(id), "node already in grid");
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{id, -1, 0, 0, 0});
  xs_.push_back(position.x);
  ys_.push_back(position.y);
  slot_of_.emplace(id, slot);
  max_id_ = std::max(max_id_, id.value());
  place(slot, cell_at(coord(position.x), coord(position.y)));
  return slot;
}

void SpatialGrid::update(util::NodeId id, util::Vec2 position) {
  const auto it = slot_of_.find(id);
  DTNIC_REQUIRE_MSG(it != slot_of_.end(), "node not in grid");
  update_slot(it->second, position);
}

void SpatialGrid::relocate(std::size_t slot) {
  const util::Vec2 position{xs_[slot], ys_[slot]};
  unplace(static_cast<std::uint32_t>(slot));
  place(static_cast<std::uint32_t>(slot), cell_at(coord(position.x), coord(position.y)));
}

void SpatialGrid::neighbors_of(util::Vec2 center, double radius, util::NodeId self,
                               std::vector<util::NodeId>& out) const {
  out.clear();
  const double r2 = radius * radius;
  const std::int32_t cx = coord(center.x);
  const std::int32_t cy = coord(center.y);
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      const auto it = cell_index_.find(key_of(cx + dx, cy + dy));
      if (it == cell_index_.end()) continue;
      const Cell& cell = pool_[it->second];
      const ScanBlock& block = blocks_[it->second];
      for (std::uint32_t i = 0; i < counts_[it->second]; ++i) {
        const bool inline_lane = i < kInline;
        const util::NodeId id = inline_lane ? util::NodeId(ids_[it->second * kInline + i])
                                            : cell.overflow[i - kInline].id;
        if (id == self) continue;
        const double px = inline_lane ? block.x[i] : xs_[cell.overflow[i - kInline].slot];
        const double py = inline_lane ? block.y[i] : ys_[cell.overflow[i - kInline].slot];
        const double ddx = center.x - px;
        const double ddy = center.y - py;
        if (ddx * ddx + ddy * ddy <= r2) out.push_back(id);
      }
    }
  }
}

void SpatialGrid::pairs_within(double radius, std::vector<Pair>& out) const {
  DTNIC_REQUIRE_MSG(radius <= cell_size_, "query radius exceeds grid cell size");
  out.clear();
  const double r2 = radius * radius;
  const ScanView view{blocks_.data(), counts_.data(), links_.data(), ids_.data(),
                      pool_.data(),   pool_.size(),   xs_.data(),    ys_.data()};
  switch (resolve_variant()) {
#ifdef DTNIC_SIMD_X86
    case Variant::kAvx2:
      scan_kernel_avx2(view, r2, out);
      break;
    case Variant::kSse2:
      scan_kernel_sse2(view, r2, out);
      break;
#endif
    default:
      scan_kernel_scalar(view, r2, out);
      break;
  }
  // Pool order leaks into the emission order (and the SIMD kernels emit in a
  // different within-cell order than the scalar one); sorting by (a, b)
  // makes the output — and every event sequence derived from it —
  // independent of layout, churn history, and kernel choice.
  sort_pairs(out);
}

std::vector<SpatialGrid::Pair> SpatialGrid::pairs_within(double radius) const {
  std::vector<Pair> out;
  pairs_within(radius, out);
  return out;
}

}  // namespace dtnic::net
