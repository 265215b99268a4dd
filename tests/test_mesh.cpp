/// \file test_mesh.cpp
/// \brief Tests for the mesh face analysis: the guarantee that motivates
/// 2:1 balance (at most one hanging level per face, Figure 1), verified
/// before and after balancing across dimensions and connectivities.

#include <gtest/gtest.h>

#include "forest/balance.hpp"
#include "forest/mesh.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Mesh, UniformForestIsFullyConforming) {
  Forest<2> f(Connectivity<2>::brick({2, 2}), 1, 3);
  const auto s = analyze_mesh(f.gather(), f.connectivity());
  EXPECT_EQ(s.leaves, 4u * 64u);
  EXPECT_EQ(s.hanging_faces, 0u);
  EXPECT_EQ(s.bad_faces, 0u);
  EXPECT_EQ(s.max_face_level_jump, 0);
  // 2D: every leaf has 4 faces; boundary faces along the brick hull only.
  EXPECT_EQ(s.total_faces(), s.leaves * 4);
  EXPECT_EQ(s.boundary_faces, 4u * 2 * 8u);  // perimeter: 4 sides x 16 cells
}

TEST(Mesh, UnbalancedMeshHasBadFaces) {
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  // Refine a strip that touches x = 1/2 from the left only: the level-1
  // leaves right of the line stay coarse while the strip reaches level 6,
  // a guaranteed face jump of 5.  (A corner *chain*, by contrast, is
  // face-balanced by construction — it violates corner balance only.)
  f.refine(
      [](const TreeOct<2>& to) {
        if (to.oct.level >= 6) return false;
        return to.oct.x[0] + static_cast<coord_t>(side_len(to.oct)) ==
               root_len<2> / 2;
      },
      true);
  const auto s = analyze_mesh(f.gather(), f.connectivity());
  EXPECT_GT(s.bad_faces, 0u);
  EXPECT_GE(s.max_face_level_jump, 2);
}

template <typename T>
class MeshBalanceTest : public ::testing::Test {};
template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(MeshBalanceTest, Dims);

TYPED_TEST(MeshBalanceTest, BalanceEliminatesBadFaces) {
  constexpr int D = TypeParam::d;
  Rng rng(61);
  std::array<int, D> dims{};
  dims.fill(1);
  dims[0] = 2;
  Forest<D> f =
      random_forest(Connectivity<D>::brick(dims), 3, 1, rng, D == 3 ? 4 : 6,
                    0.35);
  f.partition_uniform();
  const auto before = analyze_mesh(f.gather(), f.connectivity());
  SimComm comm(3);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;  // face balance suffices for face conformity
  balance(f, opt, comm);
  const auto after = analyze_mesh(f.gather(), f.connectivity());
  EXPECT_EQ(after.bad_faces, 0u);
  EXPECT_LE(after.max_face_level_jump, 1);
  EXPECT_GE(after.leaves, before.leaves);
  // Faces are consistent from both sides: every hanging face seen from the
  // coarse side appears as 2^(D-1) coarse faces from the fine side.
  EXPECT_EQ(after.hanging_faces * (1u << (D - 1)), after.coarse_faces);
}

TYPED_TEST(MeshBalanceTest, CornerBalanceAlsoFixesFaces) {
  constexpr int D = TypeParam::d;
  Forest<D> f(Connectivity<D>::unitcube(), 2, 1);
  fractal_refine(f, D == 3 ? 4 : 6);
  f.partition_uniform();
  SimComm comm(2);
  balance(f, BalanceOptions::new_config(), comm);  // k = D
  const auto s = analyze_mesh(f.gather(), f.connectivity());
  EXPECT_EQ(s.bad_faces, 0u);
  EXPECT_LE(s.max_face_level_jump, 1);
  EXPECT_GT(s.hanging_faces, 0u);  // adaptivity retained
}

TEST(Mesh, PeriodicForestHasNoBoundary) {
  std::array<bool, 2> per{true, true};
  Forest<2> f(Connectivity<2>::brick({2, 2}, per), 1, 2);
  const auto s = analyze_mesh(f.gather(), f.connectivity());
  EXPECT_EQ(s.boundary_faces, 0u);
  EXPECT_EQ(s.conforming_faces, s.leaves * 4);
}

}  // namespace
}  // namespace octbal
