#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "util/vec2.h"

/// \file spatial_grid.h
/// Uniform-grid spatial index for range queries. The index is *persistent*:
/// each node owns a slot for its lifetime and a scan moves only the nodes
/// whose cell actually changed (`update`), instead of rebuilding the whole
/// structure. Cells left empty are pruned immediately, so a long roaming run
/// never grows the cell map beyond the live population. Cell size equals the
/// query radius so only the 3x3 neighborhood must be examined.
///
/// Cells live in one contiguous pool (recycled through a free list) with the
/// first few entries stored inline *in structure-of-arrays form*: each cell
/// owns x[4] / y[4] coordinate lanes, padded with +inf past the live count,
/// in a one-cache-line ScanBlock mirror array separate from the cold
/// bookkeeping (ids, links, and counts live in small dense side arrays). A
/// pair scan therefore reads a cell's lanes from one cache line — the inf
/// padding guarantees dead lanes never pass the radius test — and probing a
/// neighbor cell costs exactly one line.
/// Neighbor links are pool indices, kept as a reciprocal half/rev pair so
/// creating or pruning a cell patches its neighborhood without hash lookups.
///
/// The distance test is one scalar kernel in its own TU, compiled without
/// FP contraction so d² is the exact IEEE (sub, sub, mul, mul, add) sequence
/// on every compiler and target; the (a, b) sort then canonicalizes the
/// emission order.

namespace dtnic::net {

class SpatialGrid {
 public:
  /// \p cell_size should equal the query radius for the 3x3 guarantee.
  explicit SpatialGrid(double cell_size);

  SpatialGrid(const SpatialGrid&) = delete;
  SpatialGrid& operator=(const SpatialGrid&) = delete;

  /// Remove every node and cell.
  void clear();

  /// Register a node (must not already be present). Returns a stable slot
  /// handle that `update_slot` accepts, so hot callers skip the id lookup.
  std::size_t insert(util::NodeId id, util::Vec2 position);

  /// Move a node. Only touches the cell map when the node changed cell.
  void update(util::NodeId id, util::Vec2 position);

  /// Same as `update`, addressed by the slot handle `insert` returned.
  void update_slot(std::size_t slot, util::Vec2 position);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  /// Occupied cells only; empty cells are pruned, so this never exceeds
  /// size() no matter how far the population roams.
  [[nodiscard]] std::size_t cell_count() const { return cell_index_.size(); }

  /// All ids strictly within \p radius of \p center (excluding \p self),
  /// written into the caller-owned \p out (cleared first) so a reused
  /// scratch vector makes repeated queries allocation-free.
  void neighbors_of(util::Vec2 center, double radius, util::NodeId self,
                    std::vector<util::NodeId>& out) const;

  /// All unordered pairs (a, b) with a < b and distance(a, b) <= radius.
  /// \p radius must be <= cell_size.
  struct Pair {
    util::NodeId a;
    util::NodeId b;
    double distance_m;
  };
  /// Writes the pairs into \p out (cleared first), sorted by (a, b) — the
  /// emission order is independent of hash-map layout, which makes every
  /// consumer deterministic by construction. Reusing \p out across scans
  /// makes the steady state allocation-free.
  void pairs_within(double radius, std::vector<Pair>& out) const;
  /// Convenience wrapper for tests and one-shot callers.
  [[nodiscard]] std::vector<Pair> pairs_within(double radius) const;

 private:
  /// Overflow entries (beyond the inline lanes) store only the id and the
  /// slot back-pointer; their positions are read from the dense xs_/ys_
  /// arrays. At paper densities (cell size = radio range) cells hold one or
  /// two nodes, so overflow is almost never touched.
  struct Entry {
    util::NodeId id;
    std::uint32_t slot;  ///< index into xs_/ys_ / back-pointer for removal
  };

  /// Entries stored inside the cell itself, one SoA lane each.
  static constexpr std::uint32_t kInline = 4;
  /// Dead-lane fill: +inf makes the distance test fail for any finite query
  /// point, so a dead lane can never produce a pair.
  static constexpr double kLaneEmpty = std::numeric_limits<double>::infinity();

  /// Half of the 8-neighborhood; visiting only these from every cell covers
  /// each unordered cell pair exactly once.
  static constexpr int kHalf[4][2] = {{1, 0}, {1, 1}, {0, 1}, {-1, 1}};

  /// Scan-hot mirror of one pool cell: exactly one cache line holding the
  /// x/y lanes the distance test reads, so probing a cell — own or neighbor
  /// — is a single line touch. Everything else the sweep consults lives in
  /// small dense side arrays (counts_, links_, ids_) that stay L1-resident
  /// at simulation scale; the scan reads the Cell structs only for
  /// overflow entries.
  /// Lane invariant: x[j]/y[j] mirror xs_/ys_ of the j-th entry for
  /// j < min(count, kInline) and hold +inf for dead lanes, including while
  /// the cell sits on the free list.
  struct alignas(64) ScanBlock {
    double x[kInline] = {kLaneEmpty, kLaneEmpty, kLaneEmpty, kLaneEmpty};
    double y[kInline] = {kLaneEmpty, kLaneEmpty, kLaneEmpty, kLaneEmpty};
  };
  static_assert(sizeof(ScanBlock) == 64, "ScanBlock must be one cache line");

  /// Dense per-cell neighborhood links, parallel to pool_.
  /// Kept out of ScanBlock so resolving a cell's neighbors reads a compact
  /// sequential array instead of a second cache line per cell.
  struct CellLinks {
    /// Pool index of the half-neighborhood cell in direction kHalf[k];
    /// -1 when absent. The reciprocal rev links live in Cell (cold).
    std::int32_t half[4] = {-1, -1, -1, -1};
  };

  /// Cold per-cell bookkeeping (membership maintenance only; scans read it
  /// only for overflow entries). The entry count lives in the dense counts_
  /// array, the hot lanes in the ScanBlock mirror.
  struct Cell {
    std::uint32_t slot[kInline] = {0, 0, 0, 0};  ///< back-pointers
    /// Pool index of the cell that has *this* as its kHalf[k] neighbor;
    /// reciprocal with ScanBlock::half by construction, so pruning a cell
    /// unlinks its whole neighborhood without hash lookups.
    std::int32_t rev[4] = {-1, -1, -1, -1};
    std::int32_t cx = 0;
    std::int32_t cy = 0;
    /// Entries [kInline, count).
    std::vector<Entry> overflow;
  };

  struct Slot {
    util::NodeId id;
    std::int32_t cell = -1;   ///< pool index
    std::uint32_t index = 0;  ///< position within the cell's entries
    /// Cached cell coordinates: the same-cell fast path in `update_slot`
    /// compares against these and writes the dense arrays plus the cell's
    /// own lane, so a scan tick with little churn streams through dense
    /// memory and never touches cell membership.
    std::int32_t cx = 0;
    std::int32_t cy = 0;
  };

  /// Read-only view the kernel operates on: the hot mirror array, the dense
  /// per-cell entry counts (counts[c] == 0 marks pooled-but-free cells),
  /// neighborhood links, inline-lane ids (ids[c * kInline + lane], read
  /// only on a hit), the cold pool (overflow entries only), and the
  /// slot-indexed coordinates.
  struct ScanView {
    const ScanBlock* blocks;
    const std::uint32_t* counts;
    const CellLinks* links;
    const std::uint32_t* ids;
    const Cell* pool;
    std::size_t pool_size;
    const double* xs;
    const double* ys;
  };

  /// The distance kernel: appends every pair within sqrt(\p r2), unsorted
  /// and carrying d²; the caller sorts and takes the square roots.
  static void scan_kernel_scalar(const ScanView& view, double r2, std::vector<Pair>& out);

  /// Packs two sign-preserved 32-bit cell coordinates into one key; unlike
  /// the old `(cx << 24) ^ cy` scheme this cannot alias distant cells or
  /// mix negative and positive coordinates.
  [[nodiscard]] static std::uint64_t key_of(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] std::int32_t coord(double v) const;

  /// Find-or-create the cell at (cx, cy); returns its pool index.
  std::uint32_t cell_at(std::int32_t cx, std::int32_t cy);
  /// Order pairs by (a, b); counting sort on dense ids, std::sort fallback.
  void sort_pairs(std::vector<Pair>& v) const;
  void place(std::uint32_t slot, std::uint32_t cell_index);
  /// Swap-remove the slot's entry from its cell; prunes the cell if emptied.
  void unplace(std::uint32_t slot);
  /// Move the slot (position already in xs_/ys_) into the cell its
  /// coordinates now map to: update_slot's cell-crossing path.
  void relocate(std::size_t slot);

  double cell_size_;
  double inv_cell_size_;  ///< coord() multiplies instead of dividing
  /// Largest id ever inserted; lets the pair sort use an id-indexed
  /// counting pass instead of a generic comparison sort.
  std::uint32_t max_id_ = 0;
  std::vector<Cell> pool_;
  /// Hot mirror and entry counts, parallel to pool_. counts_ is the single
  /// source of truth for per-cell occupancy; at ~2000 cells it is an
  /// L1-resident 8 KiB array, so the kernel's empty-cell skip and overflow
  /// detection never touch cell memory at all.
  std::vector<ScanBlock> blocks_;
  std::vector<std::uint32_t> counts_;
  /// Dense neighborhood links, parallel to pool_.
  std::vector<CellLinks> links_;
  /// Inline-lane ids (raw NodeId values), kInline per cell, parallel to
  /// pool_. A separate array because ids are only read on a distance hit —
  /// keeping them out of ScanBlock halves the sweep's line footprint.
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> free_cells_;
  std::unordered_map<std::uint64_t, std::uint32_t> cell_index_;
  std::vector<Slot> slots_;
  /// Slot-indexed positions, split into separate coordinate arrays so the
  /// position refresh and overflow reads stream plain double lanes.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::unordered_map<util::NodeId, std::uint32_t> slot_of_;
  /// Sort double buffer and per-id bucket offsets, kept across scans so the
  /// steady state does not allocate.
  mutable std::vector<Pair> sort_scratch_;
  mutable std::vector<std::uint32_t> sort_offsets_;
};

// ---- hot-path inline definitions -----------------------------------------
// update_slot runs once per node per tick; defining it in the header lets
// callers inline the same-cell fast path (two dense stores, two coordinate
// computations, one compare) instead of paying a cross-TU call per node.

inline std::int32_t SpatialGrid::coord(double v) const {
  // Branchless floor: truncation rounds toward zero, so subtract one when
  // the scaled value was negative with a fractional part. Saves two libm
  // floor() calls per node per position refresh on baseline x86-64 (no SSE4.1
  // roundsd). Coordinates are assumed within int32 cell range, as before.
  const double s = v * inv_cell_size_;
  const auto t = static_cast<std::int32_t>(s);
  return t - static_cast<std::int32_t>(static_cast<double>(t) > s);
}

inline void SpatialGrid::update_slot(std::size_t slot, util::Vec2 position) {
  const Slot& s = slots_[slot];
  xs_[slot] = position.x;
  ys_[slot] = position.y;
  if (coord(position.x) != s.cx || coord(position.y) != s.cy) {
    relocate(slot);
    return;
  }
  // Same cell: mirror the dense write into the cell's SoA lane so the next
  // enumeration sees the move.
  if (s.index < kInline) {
    ScanBlock& block = blocks_[static_cast<std::uint32_t>(s.cell)];
    block.x[s.index] = position.x;
    block.y[s.index] = position.y;
  }
}

}  // namespace dtnic::net
