/// \file test_neighborhood.cpp
/// \brief Tests for balance-condition offsets, coarse neighborhoods N(o)
/// (Figure 5), adjacency codimension, and insulation layers (Figure 4).

#include <gtest/gtest.h>

#include "core/balance_check.hpp"
#include "core/insulation.hpp"
#include "core/neighborhood.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

TEST(Offsets, CountsMatchCombinatorics) {
  // #offsets with codim <= k is sum_{c=1..k} C(d,c) * 2^c.
  EXPECT_EQ(balance_offsets<1>(1).size(), 2u);
  EXPECT_EQ(balance_offsets<2>(1).size(), 4u);
  EXPECT_EQ(balance_offsets<2>(2).size(), 8u);
  EXPECT_EQ(balance_offsets<3>(1).size(), 6u);
  EXPECT_EQ(balance_offsets<3>(2).size(), 18u);
  EXPECT_EQ(balance_offsets<3>(3).size(), 26u);
  EXPECT_EQ(full_offsets<3>().size(), 26u);
}

TEST(Offsets, CodimensionFilter) {
  for (const auto& off : balance_offsets<3>(2)) {
    int nz = 0;
    for (int i = 0; i < 3; ++i) nz += off[i] != 0;
    EXPECT_GE(nz, 1);
    EXPECT_LE(nz, 2);
  }
}

template <typename T>
class NbhdTest : public ::testing::Test {};
template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(NbhdTest, Dims);

TYPED_TEST(NbhdTest, CoarseNeighborhoodIsParentSizedAndAdjacent) {
  constexpr int D = TypeParam::d;
  Rng rng(41);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 200; ++iter) {
    const auto o = random_octant(rng, root, 8);
    for (int k = 1; k <= D; ++k) {
      std::vector<Octant<D>> n;
      coarse_neighborhood(o, k, root, n);
      for (const auto& q : n) {
        EXPECT_EQ(q.level, o.level - 1);
        EXPECT_TRUE(is_valid(q));
        const int c = adjacency_codim(parent(o), q);
        EXPECT_GE(c, 1);
        EXPECT_LE(c, k);
      }
    }
  }
}

TYPED_TEST(NbhdTest, InteriorOctantHasFullNeighborhood) {
  constexpr int D = TypeParam::d;
  // An octant whose parent is strictly interior sees all offsets.
  const auto root = root_octant<D>();
  auto o = root;
  // Descend to the center: child(root, last), then child 0 twice keeps the
  // parent interior for level >= 3.
  o = child(o, num_children<D> - 1);
  o = child(o, 0);
  o = child(o, num_children<D> - 1);
  for (int k = 1; k <= D; ++k) {
    std::vector<Octant<D>> n;
    coarse_neighborhood(o, k, root, n);
    EXPECT_EQ(n.size(), balance_offsets<D>(k).size());
  }
}

TYPED_TEST(NbhdTest, CornerOctantNeighborhoodIsClipped) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  // The octant at the origin corner: all negative offsets clipped; its
  // parent also sits at the corner, so only positive directions survive.
  auto o = child(child(root, 0), 0);
  std::vector<Octant<D>> n;
  coarse_neighborhood(o, D, root, n);
  // Offsets with any -1 component are clipped: 2^D - 1 survive.
  EXPECT_EQ(n.size(), static_cast<std::size_t>(num_children<D> - 1));
}

TYPED_TEST(NbhdTest, NeighborhoodDependsOnlyOnParent) {
  constexpr int D = TypeParam::d;
  Rng rng(42);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 100; ++iter) {
    auto o = random_octant(rng, root, 8);
    if (o.level < 2) continue;
    for (int k = 1; k <= D; ++k) {
      std::vector<Octant<D>> a, b;
      coarse_neighborhood(o, k, root, a);
      coarse_neighborhood(zero_sibling(o), k, root, b);
      EXPECT_EQ(a, b);
    }
  }
}

TYPED_TEST(NbhdTest, AdjacencyCodimSymmetricAndSane) {
  constexpr int D = TypeParam::d;
  Rng rng(43);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 300; ++iter) {
    const auto a = random_octant(rng, root, 6);
    const auto b = random_octant(rng, root, 6);
    const int cab = adjacency_codim(a, b), cba = adjacency_codim(b, a);
    EXPECT_EQ(cab, cba);
    if (overlaps(a, b)) {
      EXPECT_EQ(cab, 0);
    }
    EXPECT_LE(cab, D);
  }
}

TYPED_TEST(NbhdTest, InsulationContainsAllSameSizeNeighbors) {
  constexpr int D = TypeParam::d;
  Rng rng(44);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 100; ++iter) {
    const auto r = random_octant(rng, root, 8);
    std::vector<Octant<D>> pieces;
    Octant<D> n;
    for (const auto& off : full_offsets<D>()) {
      if (neighbor_in<D>(r, off, root, &n)) pieces.push_back(n);
    }
    EXPECT_EQ(pieces.size() + 1, insulation_size(r));
    for (const auto& p : pieces) {
      EXPECT_TRUE(in_insulation(p, r));
      EXPECT_EQ(p.level, r.level);
    }
    // r is inside its own insulation layer, and so are its descendants.
    EXPECT_TRUE(in_insulation(r, r));
    if (r.level < max_level<D>) {
      EXPECT_TRUE(in_insulation(child(r, 0), r));
    }
  }
}

/// Every octant down to \p depth, in Morton order per level.
template <int D>
std::vector<Octant<D>> all_octants_to(int depth) {
  std::vector<Octant<D>> out{root_octant<D>()};
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].level == depth) continue;
    for (int c = 0; c < num_children<D>; ++c) out.push_back(child(out[i], c));
  }
  return out;
}

TYPED_TEST(NbhdTest, InsulationSizeMatchesNeighborCountExhaustively) {
  // The closed form the repartitioner weighs octants by, against a
  // neighbor_in count over the 3^D - 1 offsets, for every octant down to
  // level 10 (1D), 6 (2D) and 4 (3D).
  constexpr int D = TypeParam::d;
  constexpr int depth = D == 1 ? 10 : D == 2 ? 6 : 4;
  const auto root = root_octant<D>();
  static_assert(insulation_size(root_octant<D>()) == 1);
  std::size_t checked = 0;
  for (const auto& r : all_octants_to<D>(depth)) {
    std::uint64_t count = 1;
    Octant<D> n;
    for (const auto& off : full_offsets<D>()) {
      count += neighbor_in<D>(r, off, root, &n) ? 1 : 0;
    }
    ASSERT_EQ(insulation_size(r), count) << to_string(r);
    ++checked;
  }
  EXPECT_EQ(checked, ((std::size_t{1} << (D * (depth + 1))) - 1) /
                         ((std::size_t{1} << D) - 1));
}

TYPED_TEST(NbhdTest, InsulationExcludesFarOctants) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  // Level-3 octant at origin; an octant 4 cells away is outside I(r).
  auto r = root;
  for (int i = 0; i < 3; ++i) r = child(r, 0);
  Octant<D> far = r;
  far.x[0] = 4 * side_len(r);
  EXPECT_FALSE(in_insulation(far, r));
  Octant<D> near = r;
  near.x[0] = side_len(r);
  EXPECT_TRUE(in_insulation(near, r));
}

}  // namespace
}  // namespace octbal
