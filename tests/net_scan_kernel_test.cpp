#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "net/spatial_grid.h"
#include "util/rng.h"

/// Property tests for the contact-scan kernel: `pairs_within` must produce
/// the *bit-identical* sorted pair stream — ids and distance doubles — that
/// an O(n²) all-pairs reference computes, for any population, radius and
/// churn history. This TU is built with -ffp-contract=off like the kernel,
/// so both evaluate d² as the same unfused IEEE expression.

namespace dtnic::net {
namespace {

using util::NodeId;
using util::Vec2;
using Pair = SpatialGrid::Pair;

struct Point {
  NodeId id;
  Vec2 pos;
};

/// Every unordered pair within \p radius, as (min id, max id, distance),
/// sorted by (a, b) — the contract `pairs_within` documents.
std::vector<Pair> brute_force_pairs(const std::vector<Point>& points, double radius) {
  const double r2 = radius * radius;
  std::vector<Pair> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double dx = points[i].pos.x - points[j].pos.x;
      const double dy = points[i].pos.y - points[j].pos.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 > r2) continue;
      const NodeId lo = std::min(points[i].id, points[j].id);
      const NodeId hi = std::max(points[i].id, points[j].id);
      out.push_back(Pair{lo, hi, std::sqrt(d2)});
    }
  }
  std::sort(out.begin(), out.end(), [](const Pair& l, const Pair& r) {
    return l.a != r.a ? l.a < r.a : l.b < r.b;
  });
  return out;
}

/// Bitwise comparison including the distance doubles (Pair has no padding:
/// 4 + 4 + 8 bytes).
[[nodiscard]] bool bit_identical(const std::vector<Pair>& a, const std::vector<Pair>& b) {
  static_assert(sizeof(Pair) == 16);
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(Pair)) == 0;
}

std::vector<Pair> scan(const SpatialGrid& grid, double radius) {
  std::vector<Pair> out;
  grid.pairs_within(radius, out);
  return out;
}

TEST(ScanKernel, RandomizedChurnMatchesBruteForce) {
  util::Rng rng(20240807);
  SpatialGrid grid(100.0);
  const int n = 300;
  std::vector<std::size_t> slots;
  std::vector<Point> points(n);
  for (int i = 0; i < n; ++i) {
    // Include negative coordinates so coord()'s floor path is exercised.
    points[i] = {NodeId(static_cast<std::uint32_t>(i)),
                 {rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)}};
    slots.push_back(grid.insert(points[i].id, points[i].pos));
  }
  const double radii[] = {25.0, 60.0, 100.0};
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < n; ++i) {
      Vec2& pos = points[i].pos;
      if (rng.below(20) == 0) {
        // Teleport: long-range cell churn, creates and prunes cells.
        pos = {rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)};
      } else {
        pos.x += rng.uniform(-30.0, 30.0);
        pos.y += rng.uniform(-30.0, 30.0);
      }
      grid.update_slot(slots[static_cast<std::size_t>(i)], pos);
    }
    const double radius = radii[round % 3];
    const std::vector<Pair> got = scan(grid, radius);
    EXPECT_FALSE(got.empty()) << "round " << round;
    EXPECT_TRUE(bit_identical(brute_force_pairs(points, radius), got))
        << "diverged from brute force in round " << round;
  }
}

TEST(ScanKernel, BoundaryAndCoincidentDistances) {
  const std::vector<Point> points{
      {NodeId(1), {0.0, 0.0}},
      {NodeId(2), {100.0, 0.0}},  // exactly at the radius: included
      {NodeId(3), {0.0, 0.0}},    // coincident: distance 0
      // Just outside: dx is exactly 0 so d^2 = (100 + 1e-9)^2, which is
      // representably greater than 100^2. (A 1e-9 nudge on the *other* axis
      // would vanish: 10000 + 1e-18 rounds back to 10000 and passes the test.)
      {NodeId(4), {100.0, 100.0 + 1e-9}},
  };
  SpatialGrid grid(100.0);
  for (const Point& p : points) grid.insert(p.id, p.pos);
  const std::vector<Pair> pairs = scan(grid, 100.0);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].a, NodeId(1));
  EXPECT_EQ(pairs[0].b, NodeId(2));
  EXPECT_EQ(pairs[0].distance_m, 100.0);
  EXPECT_EQ(pairs[1].b, NodeId(3));
  EXPECT_EQ(pairs[1].distance_m, 0.0);
  EXPECT_EQ(pairs[2].a, NodeId(2));
  EXPECT_EQ(pairs[2].b, NodeId(3));
  EXPECT_TRUE(bit_identical(brute_force_pairs(points, 100.0), pairs));
}

TEST(ScanKernel, OverflowCellsMatchBruteForce) {
  // Cram well past kInline entries into single cells so the scan reads
  // overflow entries, including pairs between an overflowing cell and a
  // sparse neighbor.
  util::Rng rng(7);
  SpatialGrid grid(100.0);
  std::vector<Point> points;
  std::uint32_t id = 0;
  for (int i = 0; i < 12; ++i) {  // one crowded cell
    points.push_back({NodeId(++id),
                      {10.0 + rng.uniform(0.0, 80.0), 10.0 + rng.uniform(0.0, 80.0)}});
  }
  for (int i = 0; i < 3; ++i) {  // sparse neighbor cell
    points.push_back({NodeId(++id),
                      {110.0 + rng.uniform(0.0, 80.0), 10.0 + rng.uniform(0.0, 80.0)}});
  }
  for (const Point& p : points) grid.insert(p.id, p.pos);
  const std::vector<Pair> got = scan(grid, 100.0);
  ASSERT_GT(got.size(), 60u);
  EXPECT_TRUE(bit_identical(brute_force_pairs(points, 100.0), got));
}

}  // namespace
}  // namespace dtnic::net
