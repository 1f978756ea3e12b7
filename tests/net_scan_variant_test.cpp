#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/spatial_grid.h"
#include "util/rng.h"

/// Property tests for the interchangeable contact-scan kernels: every
/// supported variant (scalar always; SSE2/AVX2 when built + supported) must
/// produce *bit-identical* sorted pair streams — ids and distance doubles —
/// for any population, radius, and churn history. This
/// is the invariant the fig5x determinism guarantee stands on.

namespace dtnic::net {
namespace {

using util::NodeId;
using util::Vec2;
using Pair = SpatialGrid::Pair;
using Variant = SpatialGrid::ScanVariant;

/// Bitwise comparison including the distance doubles (Pair has no padding:
/// 4 + 4 + 8 bytes).
[[nodiscard]] bool bit_identical(const std::vector<Pair>& a, const std::vector<Pair>& b) {
  static_assert(sizeof(Pair) == 16);
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(Pair)) == 0;
}

class ScanVariantTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_variant_ = SpatialGrid::scan_variant(); }
  void TearDown() override { SpatialGrid::set_scan_variant(entry_variant_); }

 private:
  Variant entry_variant_ = Variant::kScalar;
};

/// Run pairs_within under \p v and return the sorted stream.
std::vector<Pair> scan_with(const SpatialGrid& grid, double radius, Variant v) {
  EXPECT_TRUE(SpatialGrid::set_scan_variant(v));
  std::vector<Pair> out;
  grid.pairs_within(radius, out);
  return out;
}

TEST_F(ScanVariantTest, ScalarAlwaysSupported) {
  const auto variants = SpatialGrid::supported_scan_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), Variant::kScalar);
  EXPECT_FALSE(SpatialGrid::set_scan_variant(static_cast<Variant>(99)));
}

TEST_F(ScanVariantTest, RandomizedChurnBitIdenticalAcrossVariants) {
  util::Rng rng(20240807);
  SpatialGrid grid(100.0);
  const int n = 300;
  std::vector<std::size_t> slots;
  std::vector<Vec2> pos(n);
  for (int i = 0; i < n; ++i) {
    // Include negative coordinates so coord()'s floor path is exercised.
    pos[i] = {rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)};
    slots.push_back(grid.insert(NodeId(static_cast<std::uint32_t>(i)), pos[i]));
  }
  const double radii[] = {25.0, 60.0, 100.0};
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < n; ++i) {
      if (rng.below(20) == 0) {
        // Teleport: long-range cell churn, creates and prunes cells.
        pos[i] = {rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)};
      } else {
        pos[i].x += rng.uniform(-30.0, 30.0);
        pos[i].y += rng.uniform(-30.0, 30.0);
      }
      grid.update_slot(slots[static_cast<std::size_t>(i)], pos[i]);
    }
    const double radius = radii[round % 3];
    const std::vector<Pair> reference = scan_with(grid, radius, Variant::kScalar);
    for (const Variant v : SpatialGrid::supported_scan_variants()) {
      const std::vector<Pair> got = scan_with(grid, radius, v);
      EXPECT_TRUE(bit_identical(reference, got))
          << "variant " << SpatialGrid::scan_variant_name(v) << " diverged in round " << round;
    }
  }
}

TEST_F(ScanVariantTest, BoundaryAndCoincidentDistances) {
  for (const Variant v : SpatialGrid::supported_scan_variants()) {
    SpatialGrid grid(100.0);
    grid.insert(NodeId(1), {0.0, 0.0});
    grid.insert(NodeId(2), {100.0, 0.0});  // exactly at the radius: included
    grid.insert(NodeId(3), {0.0, 0.0});    // coincident: distance 0
    // Just outside: dx is exactly 0 so d^2 = (100 + 1e-9)^2, which is
    // representably greater than 100^2. (A 1e-9 nudge on the *other* axis
    // would vanish: 10000 + 1e-18 rounds back to 10000 and passes the test.)
    grid.insert(NodeId(4), {100.0, 100.0 + 1e-9});
    const std::vector<Pair> pairs = scan_with(grid, 100.0, v);
    ASSERT_EQ(pairs.size(), 3u) << SpatialGrid::scan_variant_name(v);
    EXPECT_EQ(pairs[0].a, NodeId(1));
    EXPECT_EQ(pairs[0].b, NodeId(2));
    EXPECT_EQ(pairs[0].distance_m, 100.0);
    EXPECT_EQ(pairs[1].b, NodeId(3));
    EXPECT_EQ(pairs[1].distance_m, 0.0);
    EXPECT_EQ(pairs[2].a, NodeId(2));
    EXPECT_EQ(pairs[2].b, NodeId(3));
  }
}

TEST_F(ScanVariantTest, OverflowCellsTakeIdenticalFallback) {
  // Cram well past kInline entries into single cells so the SIMD kernels
  // route those cells through the scalar fallback; output must stay
  // bit-identical, including pairs between an overflowing cell and a
  // vectorizable neighbor.
  util::Rng rng(7);
  SpatialGrid grid(100.0);
  std::uint32_t id = 0;
  for (int i = 0; i < 12; ++i) {  // one crowded cell
    grid.insert(NodeId(++id), {10.0 + rng.uniform(0.0, 80.0), 10.0 + rng.uniform(0.0, 80.0)});
  }
  for (int i = 0; i < 3; ++i) {  // sparse neighbor cell (vector path)
    grid.insert(NodeId(++id), {110.0 + rng.uniform(0.0, 80.0), 10.0 + rng.uniform(0.0, 80.0)});
  }
  const std::vector<Pair> reference = scan_with(grid, 100.0, Variant::kScalar);
  ASSERT_GT(reference.size(), 60u);
  for (const Variant v : SpatialGrid::supported_scan_variants()) {
    EXPECT_TRUE(bit_identical(reference, scan_with(grid, 100.0, v)))
        << SpatialGrid::scan_variant_name(v);
  }
}

}  // namespace
}  // namespace dtnic::net
