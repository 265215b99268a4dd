/// \file test_general_connectivity_3d.cpp
/// \brief General 3D face gluings: all 8 orientations validate; the
/// untwisted ring reproduces the periodic brick exactly (neighbor-by-
/// neighbor and balance-by-balance); twisted rings balance correctly
/// against the serial reference and propagate refinement through the
/// rotation.

#include <gtest/gtest.h>

#include "core/neighborhood.hpp"
#include "forest/balance.hpp"
#include "forest/mesh.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(General3D, AllOrientationsValidate) {
  for (std::uint8_t orient = 0; orient < 8; ++orient) {
    for (int n : {1, 2, 3}) {
      const auto c = Connectivity<3>::ring(n, orient);
      EXPECT_TRUE(c.validate()) << "orient=" << int(orient) << " n=" << n;
    }
  }
}

TEST(General3D, InverseOrientRoundTrips) {
  for (std::uint8_t o = 0; o < 8; ++o) {
    EXPECT_EQ(inverse_orient(inverse_orient(o)), o) << int(o);
  }
  // Swap exchanges the flip bits.
  EXPECT_EQ(inverse_orient(0b011), 0b101);
  EXPECT_EQ(inverse_orient(0b101), 0b011);
  EXPECT_EQ(inverse_orient(0b111), 0b111);
}

TEST(General3D, UntwistedRingNeighborMatchesPeriodicBrick) {
  const auto ring = Connectivity<3>::ring(2, 0);
  std::array<bool, 3> per{true, false, false};
  const auto brick = Connectivity<3>::brick({2, 1, 1}, per);
  Rng rng(77);
  const auto root = root_octant<3>();
  for (int i = 0; i < 300; ++i) {
    const auto o = random_octant(rng, root, 5);
    const int t = static_cast<int>(rng.below(2));
    for (const auto& off : full_offsets<3>()) {
      const auto a = ring.neighbor(t, o, off);
      const auto b = brick.neighbor(t, o, off);
      ASSERT_EQ(a.has_value(), b.has_value())
          << "t=" << t << " o=" << to_string(o) << " off=(" << off[0] << ","
          << off[1] << "," << off[2] << ")";
      if (!a) continue;
      EXPECT_EQ(a->tree, b->tree);
      EXPECT_EQ(a->oct, b->oct);
      EXPECT_EQ(a->xform.apply(a->oct), b->xform.apply(b->oct));
    }
  }
}

TEST(General3D, SwapOrientationExchangesTangentialAxes) {
  // One tree, +x glued to -x with tangential swap (y <-> z).
  const auto c = Connectivity<3>::ring(1, 0b001);
  const coord_t R = root_len<3>;
  const coord_t h = R / 4;
  Oct3 o{{R - h, h, 2 * h}, 2};
  const auto nb = c.neighbor(0, o, {1, 0, 0});
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->oct.x[0], 0);
  // Source y (= h) lands on neighbor z; source z (= 2h) lands on y.
  EXPECT_EQ(nb->oct.x[1], 2 * h);
  EXPECT_EQ(nb->oct.x[2], h);
  // The transform inverts the mapping exactly.
  Oct3 want = o;
  want.x[0] = R;
  EXPECT_EQ(nb->xform.apply(nb->oct), want);
}

TEST(General3D, TwistedRingBalanceMatchesSerial) {
  for (std::uint8_t orient : {std::uint8_t{0b001}, std::uint8_t{0b010},
                              std::uint8_t{0b111}}) {
    for (int ranks : {1, 3}) {
      Rng rng(orient * 100 + ranks);
      auto f = random_forest(Connectivity<3>::ring(2, orient), ranks, 1, rng, 3,
                             0.35);
      f.partition_uniform();
      const auto want =
          forest_balance_serial(f.gather(), f.connectivity(), 3);
      SimComm comm(ranks);
      balance(f, BalanceOptions::new_config(), comm);
      EXPECT_EQ(f.gather(), want)
          << "orient=" << int(orient) << " ranks=" << ranks;
      EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));
    }
  }
}

TEST(General3D, RefinementPropagatesThroughRotation) {
  // Swap gluing: deep refinement at high-y of tree 1's +x face must force
  // fine octants at high-z (not high-y) of tree 0's -x face.
  const auto c = Connectivity<3>::ring(2, 0b001);
  Forest<3> f(c, 1, 1);
  f.refine(
      [](const TreeOct<3>& to) {
        const coord_t h = side_len(to.oct);
        return to.tree == 1 && to.oct.level < 5 &&
               to.oct.x[0] + h == root_len<3> &&
               to.oct.x[1] + h == root_len<3> && to.oct.x[2] == 0;
      },
      true);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 1));
  int fine_swapped = 0, fine_unswapped = 0;
  for (const auto& to : f.gather()) {
    if (to.tree != 0 || to.oct.x[0] != 0 || to.oct.level < 3) continue;
    // Source (y=R, z=0) of tree1's face maps through swap+no flips to
    // neighbor (y=0, z=R) region... source y -> neighbor z, source z ->
    // neighbor y.  High-y/low-z maps to low-y/high-z.
    const coord_t h = side_len(to.oct);
    if (to.oct.x[1] == 0 && to.oct.x[2] + h >= root_len<3> - root_len<3> / 4) {
      ++fine_swapped;
    }
    if (to.oct.x[1] + h >= root_len<3> - root_len<3> / 4 && to.oct.x[2] == 0) {
      ++fine_unswapped;
    }
  }
  EXPECT_GT(fine_swapped, 0) << "rotation did not propagate";
  EXPECT_EQ(fine_unswapped, 0) << "refinement leaked to the unswapped slot";
}

TEST(General3D, MeshAnalysisOnTwistedRing) {
  Forest<3> f(Connectivity<3>::ring(2, 0b111), 1, 2);
  const auto s = analyze_mesh(f.gather(), f.connectivity());
  EXPECT_EQ(s.bad_faces, 0u);
  // Boundary only on the +-y and +-z faces: 4 sides x 2 trees x 16 cells.
  EXPECT_EQ(s.boundary_faces, 4u * 2u * 16u);
}

}  // namespace
}  // namespace octbal
