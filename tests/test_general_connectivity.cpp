/// \file test_general_connectivity.cpp
/// \brief Tests for general (non-lattice) 2D connectivities: rings glued
/// through explicit face tables, and Möbius bands whose wrap link reverses
/// the tangential axis.  The untwisted ring must reproduce the periodic
/// brick *exactly* (a strong cross-implementation oracle); the twisted
/// ring is checked against the serial reference and the definition-level
/// balance predicate.

#include <gtest/gtest.h>

#include "core/neighborhood.hpp"
#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "forest/mesh.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(GeneralConnectivity, ValidatesRingsAndMoebius) {
  for (int n : {1, 2, 3, 5}) {
    EXPECT_TRUE(Connectivity<2>::ring(n, false).validate()) << "ring " << n;
    EXPECT_TRUE(Connectivity<2>::moebius(n).validate()) << "moebius " << n;
  }
}

TEST(GeneralConnectivity, MutualityViolationIsDetected) {
  // Glue 0:+x to 1:-x but claim the reverse points elsewhere.
  std::vector<std::array<FaceGlue, 4>> faces(2);
  faces[0][1] = FaceGlue{1, 0, false};
  faces[1][0] = FaceGlue{1, 1, false};  // wrong: should point back to tree 0
  const auto c = Connectivity<2>::general(2, std::move(faces));
  EXPECT_FALSE(c.validate());
}

TEST(GeneralConnectivity, UntwistedRingNeighborMatchesPeriodicBrick) {
  const auto ring = Connectivity<2>::ring(2, false);
  std::array<bool, 2> per{true, false};
  const auto brick = Connectivity<2>::brick({2, 1}, per);
  Rng rng(42);
  const auto root = root_octant<2>();
  for (int i = 0; i < 500; ++i) {
    const auto o = random_octant(rng, root, 6);
    const int t = static_cast<int>(rng.below(2));
    for (const auto& off : full_offsets<2>()) {
      const auto a = ring.neighbor(t, o, off);
      const auto b = brick.neighbor(t, o, off);
      ASSERT_EQ(a.has_value(), b.has_value())
          << "t=" << t << " o=" << to_string(o) << " off=(" << off[0] << ","
          << off[1] << ")";
      if (!a) continue;
      EXPECT_EQ(a->tree, b->tree);
      EXPECT_EQ(a->oct, b->oct);
      // Transforms agree as maps (compare on the neighbor octant).
      EXPECT_EQ(a->xform.apply(a->oct), b->xform.apply(b->oct));
    }
  }
}

TEST(GeneralConnectivity, MoebiusFaceTransformFlipsTangential) {
  const auto c = Connectivity<2>::moebius(1);
  const coord_t R = root_len<2>;
  Oct2 o{{R - R / 4, R / 2}, 2};  // touching the +x face, h = R/4
  const auto nb = c.neighbor(0, o, {1, 0});
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->tree, 0);
  // Lands at the -x face with the tangential coordinate reversed:
  // y' = R - y - h = R - R/2 - R/4 = R/4.
  EXPECT_EQ(nb->oct.x[0], 0);
  EXPECT_EQ(nb->oct.x[1], R / 4);
  // The transform maps the neighbor back onto the exterior source image.
  const auto ext = nb->xform.apply(nb->oct);
  EXPECT_EQ(ext.x[0], R);
  EXPECT_EQ(ext.x[1], R / 2);
}

void expect_distributed_matches_serial(const Connectivity<2>& conn, int ranks,
                                       int k, Rng& rng, const char* label) {
  auto f = random_forest(conn, ranks, 1, rng, 5, 0.35);
  f.partition_uniform();
  const auto want = forest_balance_serial(f.gather(), conn, k);
  SimComm comm(ranks);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = k;
  balance(f, opt, comm);
  EXPECT_EQ(f.gather(), want) << label;
  EXPECT_TRUE(forest_is_balanced(f.gather(), conn, k)) << label;
}

TEST(GeneralConnectivity, UntwistedRingBalanceEqualsPeriodicBrick) {
  // The same mesh balanced under the two connectivity implementations must
  // coincide leaf for leaf.
  std::array<bool, 2> per{true, false};
  for (int k = 1; k <= 2; ++k) {
    Rng rng(100 + k);
    auto a = random_forest(Connectivity<2>::ring(2, false), 3, 1, rng, 5, 0.35);
    Rng rng2(100 + k);
    auto b = random_forest(Connectivity<2>::brick({2, 1}, per), 3, 1, rng2, 5,
                           0.35);
    ASSERT_EQ(a.gather(), b.gather());
    SimComm ca(3), cb(3);
    BalanceOptions opt = BalanceOptions::new_config();
    opt.k = k;
    balance(a, opt, ca);
    balance(b, opt, cb);
    EXPECT_EQ(a.gather(), b.gather()) << "k=" << k;
  }
}

TEST(GeneralConnectivity, MoebiusBalanceMatchesSerial) {
  for (int n : {1, 3}) {
    for (int ranks : {1, 4}) {
      for (int k = 1; k <= 2; ++k) {
        Rng rng(n * 100 + ranks * 10 + k);
        expect_distributed_matches_serial(Connectivity<2>::moebius(n), ranks,
                                          k, rng, "moebius");
      }
    }
  }
}

TEST(GeneralConnectivity, MoebiusEdgeRefinementPropagatesThroughTwist) {
  // Refine deeply at the twist link's top edge of tree n-1: after balance,
  // the *bottom* edge of tree 0 must have been forced fine (the flip maps
  // high y to low y).
  const int n = 2;
  Forest<2> f(Connectivity<2>::moebius(n), 1, 1);
  f.refine(
      [&](const TreeOct<2>& to) {
        return to.tree == n - 1 && to.oct.level < 6 &&
               to.oct.x[0] + static_cast<coord_t>(side_len(to.oct)) ==
                   root_len<2> &&
               to.oct.x[1] + static_cast<coord_t>(side_len(to.oct)) ==
                   root_len<2>;
      },
      true);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 1));
  // Tree 0 must now hold fine octants at its LOW-y corner of the -x face.
  int fine_low = 0, fine_high = 0;
  for (const auto& to : f.gather()) {
    if (to.tree != 0 || to.oct.x[0] != 0 || to.oct.level < 4) continue;
    if (to.oct.x[1] < root_len<2> / 4) ++fine_low;
    if (to.oct.x[1] >= 3 * (root_len<2> / 4)) ++fine_high;
  }
  EXPECT_GT(fine_low, 0) << "twist did not propagate to the flipped side";
  EXPECT_EQ(fine_high, 0) << "refinement leaked to the untwisted side";
}

TEST(GeneralConnectivity, MoebiusMeshHasNoBoundaryOnGluedFaces) {
  Forest<2> f(Connectivity<2>::moebius(3), 1, 2);
  const auto s = analyze_mesh(f.gather(), f.connectivity());
  // Only the +-y faces are physical: 2 sides x (3 trees x 4 cells).
  EXPECT_EQ(s.boundary_faces, 2u * 3u * 4u);
  EXPECT_EQ(s.bad_faces, 0u);
}

TEST(GeneralConnectivity, GhostsAcrossTheTwist) {
  Forest<2> f(Connectivity<2>::moebius(2), 2, 2);
  SimComm comm(2);
  const auto g = build_ghost_layer(f, 1, comm);
  // Uniform mesh on 2 ranks (one tree each): each rank sees the other's
  // edge columns through both links.
  ASSERT_FALSE(g.per_rank[0].empty());
  for (const auto& e : g.per_rank[0]) {
    EXPECT_EQ(e.owner, 1);
    EXPECT_EQ(e.oct.tree, 1);
  }
}

TEST(GeneralConnectivity, SingularCornersReturnNoNeighbor) {
  // At the Möbius twist, the corner diagonal through the glued face of a
  // boundary corner has no consistent two-path continuation.
  const auto c = Connectivity<2>::moebius(1);
  const coord_t R = root_len<2>;
  Oct2 top_right{{R - R / 4, R - R / 4}, 2};
  const auto nb = c.neighbor(0, top_right, {1, 1});
  EXPECT_FALSE(nb.has_value());
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

TEST(GeneralConnectivity, OldPipelineHandlesReflectedExteriorConstraints) {
  // The old configuration ships raw octants and rebalances whole
  // partitions with exterior auxiliaries; across a twisted gluing those
  // auxiliaries are *reflected* exterior octants.  Both pipelines must
  // still produce the serial result.
  for (int ranks : {1, 3}) {
    for (int k = 1; k <= 2; ++k) {
      Rng rng(7000 + ranks * 10 + k);
      auto a =
          random_forest(Connectivity<2>::moebius(2), ranks, 1, rng, 5, 0.35);
      a.partition_uniform();
      const auto want = forest_balance_serial(a.gather(), a.connectivity(), k);
      SimComm comm(ranks);
      BalanceOptions opt = BalanceOptions::old_config();
      opt.k = k;
      balance(a, opt, comm);
      EXPECT_EQ(a.gather(), want) << "old ranks=" << ranks << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace octbal
