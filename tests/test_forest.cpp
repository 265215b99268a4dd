/// \file test_forest.cpp
/// \brief Tests for connectivity, the distributed forest, refinement,
/// coarsening, SFC partitioning and owner lookups.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "core/ripple.hpp"
#include "forest/balance.hpp"
#include "forest/forest.hpp"
#include "forest_reference.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Connectivity, UnitcubeHasNoNeighbors) {
  const auto c = Connectivity<2>::unitcube();
  EXPECT_EQ(c.num_trees(), 1);
  Oct2 o{{0, 0}, 1};
  EXPECT_FALSE(c.neighbor(0, o, {-1, 0}).has_value());
  EXPECT_TRUE(c.neighbor(0, o, {1, 0}).has_value());
  EXPECT_EQ(c.neighbor(0, o, {1, 0})->tree, 0);
  EXPECT_TRUE(c.validate());
}

TEST(Connectivity, BrickFaceNeighbors) {
  const auto c = Connectivity<2>::brick({3, 2});
  EXPECT_EQ(c.num_trees(), 6);
  EXPECT_EQ(c.tree_index({2, 1}), 5);
  EXPECT_EQ(c.tree_coords(4), (std::array<int, 2>{1, 1}));
  // The right half of tree 0 stepping right lands in tree 1.
  Oct2 o{{root_len<2> / 2, 0}, 1};
  const auto nb = c.neighbor(0, o, {1, 0});
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->tree, 1);
  EXPECT_EQ(nb->oct.x[0], 0);
  EXPECT_EQ(nb->step, (std::array<coord_t, 2>{1, 0}));
  EXPECT_TRUE(c.validate());
}

TEST(Connectivity, TreeCoordsThrowsWithoutLattice) {
  // A general connectivity has no lattice (its dims are 0), so no tree of
  // it has lattice coordinates; neither has a tree outside the brick.
  const auto ring = Connectivity<2>::ring(3, 0);
  EXPECT_THROW(ring.tree_coords(1), std::invalid_argument);
  const auto c = Connectivity<2>::brick({3, 2});
  EXPECT_THROW(c.tree_coords(6), std::invalid_argument);
  EXPECT_THROW(c.tree_coords(-1), std::invalid_argument);
  EXPECT_EQ(c.tree_coords(5), (std::array<int, 2>{2, 1}));
}

TEST(Connectivity, TreeIndexThrowsOutsideLattice) {
  // {3, 0} lies outside the 3 x 2 lattice although 0 * 3 + 3 = 3 is a
  // tree index, so only the per-axis check can reject it.
  const auto c = Connectivity<2>::brick({3, 2});
  EXPECT_THROW(c.tree_index({3, 0}), std::invalid_argument);
  EXPECT_THROW(c.tree_index({0, -1}), std::invalid_argument);
  EXPECT_THROW(c.tree_index({0, 2}), std::invalid_argument);
  EXPECT_THROW(Connectivity<3>::ring(2, 0).tree_index({0, 0, 0}),
               std::invalid_argument);
  EXPECT_EQ(c.tree_index({0, 1}), 3);
}

TEST(Connectivity, BrickCornerNeighborAcrossTrees) {
  const auto c = Connectivity<2>::brick({2, 2});
  // The top-right corner octant of tree 0 stepping diagonally reaches
  // tree 3's bottom-left.
  const coord_t h = root_len<2> / 2;
  Oct2 o{{h, h}, 1};
  const auto nb = c.neighbor(0, o, {1, 1});
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->tree, 3);
  EXPECT_EQ(nb->oct.x, (std::array<coord_t, 2>{0, 0}));
}

TEST(Connectivity, PeriodicWrap) {
  std::array<bool, 2> per{true, false};
  const auto c = Connectivity<2>::brick({2, 1}, per);
  Oct2 o{{0, 0}, 1};
  const auto nb = c.neighbor(0, o, {-1, 0});
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->tree, 1);  // wrapped around
  EXPECT_EQ(nb->oct.x[0], root_len<2> / 2);
  EXPECT_FALSE(c.neighbor(0, o, {0, -1}).has_value());  // y not periodic
  EXPECT_TRUE(c.validate());
}

TEST(Connectivity, Brick3D) {
  const auto c = Connectivity<3>::brick({3, 2, 1});
  EXPECT_EQ(c.num_trees(), 6);
  EXPECT_TRUE(c.validate());
  // Edge neighbor across two trees.
  const coord_t h = root_len<3> / 2;
  Oct3 o{{h, h, 0}, 1};
  const auto nb = c.neighbor(0, o, {1, 1, 0});
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->tree, 4);  // (1,1,0) in a 3x2x1 brick
}

template <int D>
Connectivity<D> brick2() {
  std::array<int, D> dims{};
  dims.fill(1);
  dims[0] = 2;
  return Connectivity<D>::brick(dims);
}

template <int D>
Connectivity<D> brick3() {
  std::array<int, D> dims{};
  dims.fill(1);
  dims[0] = 3;
  return Connectivity<D>::brick(dims);
}

template <typename T>
class ForestTest : public ::testing::Test {};
template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(ForestTest, Dims);

TYPED_TEST(ForestTest, UniformConstructionIsValid) {
  constexpr int D = TypeParam::d;
  const auto conn = brick2<D>();
  for (int p : {1, 3, 4}) {
    Forest<D> f(conn, p, 2);
    EXPECT_TRUE(f.is_valid());
    EXPECT_EQ(f.global_num_octants(),
              static_cast<std::uint64_t>(conn.num_trees())
                  << (2 * D));
    // Roughly even distribution.
    for (int r = 0; r < p; ++r) {
      EXPECT_LE(f.local(r).size(), f.global_num_octants() / p + 1);
    }
  }
}

TYPED_TEST(ForestTest, RefineAndCoarsenRoundTrip) {
  constexpr int D = TypeParam::d;
  Forest<D> f(Connectivity<D>::unitcube(), 2, 1);
  const auto before = f.gather();
  f.refine([](const TreeOct<D>&) { return true; }, false);
  EXPECT_TRUE(f.is_valid());
  EXPECT_EQ(f.global_num_octants(),
            before.size() * static_cast<std::size_t>(num_children<D>));
  f.coarsen([](const TreeOct<D>&) { return true; });
  EXPECT_TRUE(f.is_valid());
  EXPECT_EQ(f.gather(), before);
}

TYPED_TEST(ForestTest, RecursiveRefineRespectsPredicate) {
  constexpr int D = TypeParam::d;
  Forest<D> f(Connectivity<D>::unitcube(), 1, 0);
  // Refine only along the origin corner down to level 4.
  f.refine(
      [](const TreeOct<D>& to) {
        if (to.oct.level >= 4) return false;
        for (int i = 0; i < D; ++i) {
          if (to.oct.x[i] != 0) return false;
        }
        return true;
      },
      true);
  EXPECT_TRUE(f.is_valid());
  const auto all = f.gather();
  // Exactly one leaf per level 1..3 pattern: the corner chain.
  int deepest = 0;
  for (const auto& to : all) deepest = std::max(deepest, int(to.oct.level));
  EXPECT_EQ(deepest, 4);
}

TYPED_TEST(ForestTest, PartitionUniformEqualizes) {
  constexpr int D = TypeParam::d;
  Forest<D> f(brick2<D>(), 4, 1);
  // Skew the mesh heavily, then repartition.
  f.refine(
      [](const TreeOct<D>& to) {
        return to.tree == 0 && to.oct.level < 4;
      },
      true);
  SimComm comm(4);
  f.partition_uniform(&comm);
  EXPECT_TRUE(f.is_valid());
  const auto n = f.global_num_octants();
  for (int r = 0; r < 4; ++r) {
    EXPECT_NEAR(static_cast<double>(f.local(r).size()),
                static_cast<double>(n) / 4, 1.0);
  }
  EXPECT_GT(comm.stats().bytes, 0u);  // something actually moved
}

TYPED_TEST(ForestTest, PartitionWeightedFollowsWeights) {
  constexpr int D = TypeParam::d;
  Forest<D> f(Connectivity<D>::unitcube(), 4, 2);
  // Give all weight to the first half of the curve: ranks 0..1 should end
  // up holding it.
  const auto all = f.gather();
  const auto mid = all[all.size() / 2];
  f.partition_weighted([&](const TreeOct<D>& to) {
    return to < mid ? 3 : 1;
  });
  EXPECT_TRUE(f.is_valid());
  // The first half (weight 3x) is spread over ~3/4 of the ranks, so rank 0
  // holds fewer octants than uniform.
  EXPECT_LT(f.local(0).size(), all.size() / 4);
}

TYPED_TEST(ForestTest, OwnersOfFindsCorrectRanks) {
  constexpr int D = TypeParam::d;
  Forest<D> f(brick2<D>(), 5, 2);
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    // Pick a random owned octant and verify its owner range.
    const int r = static_cast<int>(rng.below(5));
    if (f.local(r).empty()) continue;
    const auto& to = f.local(r)[rng.below(f.local(r).size())];
    const auto [a, b] = f.owners_of(position_of(to), end_position_of(to));
    EXPECT_LE(a, r);
    EXPECT_GE(b, r);
    // A leaf is never split across ranks.
    EXPECT_EQ(a, b);
  }
}

TYPED_TEST(ForestTest, OwnersOfSpanningRange) {
  constexpr int D = TypeParam::d;
  Forest<D> f(Connectivity<D>::unitcube(), 4, 2);
  // The whole root is owned by everyone.
  const TreeOct<D> whole{0, root_octant<D>()};
  const auto [a, b] = f.owners_of(position_of(whole), end_position_of(whole));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 3);
}

TYPED_TEST(ForestTest, GatherIsSortedGlobalOrder) {
  constexpr int D = TypeParam::d;
  Forest<D> f(brick3<D>(), 3, 2);
  const auto all = f.gather();
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_TRUE(all[i] < all[i + 1]);
  }
}

TEST(ForestBalanceOracle, DetectsCrossTreeViolations) {
  const auto conn = Connectivity<2>::brick({2, 1});
  Forest<2> f(conn, 1, 1);
  // Deep refinement at the right edge of tree 0 (touching tree 1).
  f.refine(
      [](const TreeOct<2>& to) {
        return to.tree == 0 && to.oct.level < 4 &&
               to.oct.x[0] + side_len(to.oct) == root_len<2>;
      },
      true);
  const auto leaves = f.gather();
  // Tree 1 is a single root-level... actually level-1 leaves; the deep
  // refinement in tree 0 must violate cross-tree balance.
  EXPECT_FALSE(forest_is_balanced(leaves, conn, 1));
  const auto balanced = forest_balance_serial(leaves, conn, 1);
  EXPECT_TRUE(forest_is_balanced(balanced, conn, 1));
  EXPECT_GT(balanced.size(), leaves.size());
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

TEST(OracleCrossValidation, ForestSerialEqualsRippleOnSingleTree) {
  // Two independent reference implementations must agree: the forest-level
  // serial fixpoint (per-tree subtree balance iterated) and the pure
  // definition-level ripple, on a single-tree forest.
  Rng rng(2718);
  const auto conn = Connectivity<2>::unitcube();
  for (int iter = 0; iter < 10; ++iter) {
    Forest<2> f(conn, 1, 1);
    f.refine(
        [&](const TreeOct<2>& to) {
          return to.oct.level < 5 && rng.chance(0.35);
        },
        true);
    const auto leaves = f.gather();
    std::vector<Oct2> plain;
    for (const auto& to : leaves) plain.push_back(to.oct);
    for (int k = 1; k <= 2; ++k) {
      const auto via_forest = forest_balance_serial(leaves, conn, k);
      const auto via_ripple = ripple_balance(plain, k, root_octant<2>());
      ASSERT_EQ(via_forest.size(), via_ripple.size()) << "k=" << k;
      for (std::size_t i = 0; i < via_ripple.size(); ++i) {
        EXPECT_EQ(via_forest[i].oct, via_ripple[i]);
      }
    }
  }
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

/// A pure pseudo-random predicate: true for a fraction \p p of octants,
/// decided by a hash of the octant alone, so the rank workers may call it
/// concurrently and in any order.
template <int D>
typename Forest<D>::RefinePred hashed(std::uint64_t salt, double p,
                                      int lmax = max_level<D>) {
  return [salt, p, lmax](const TreeOct<D>& to) {
    if (to.oct.level >= lmax) return false;
    std::uint64_t h = salt ^ morton_key(to.oct) * 0x9E3779B97F4A7C15ull ^
                      static_cast<std::uint64_t>(to.tree) << 48 ^
                      static_cast<std::uint64_t>(to.oct.level) << 56;
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 32;
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
  };
}

/// \p got is \p before after one sweep that the reference says yields
/// \p want: the same per-rank arrays, the markers they imply, and the dirty
/// log extended by the created leaves in the reference's order.
template <int D>
void expect_mutation(const Forest<D>& before, const Forest<D>& got,
                     const reference::Mutation<D>& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_ranks(), static_cast<int>(want.local.size())) << what;
  Forest<D> ref = before;
  for (int r = 0; r < got.num_ranks(); ++r) {
    EXPECT_EQ(got.local(r), want.local[r]) << what << " rank " << r;
    ref.local(r) = want.local[r];
  }
  ref.refresh_markers();
  EXPECT_EQ(got.markers(), ref.markers()) << what;
  auto log = before.dirty();
  log.insert(log.end(), want.created.begin(), want.created.end());
  EXPECT_EQ(got.dirty(), log) << what;
  EXPECT_TRUE(got.is_valid()) << what;
}

/// A periodic brick and a ring per dimension (a Möbius band in 2D, a
/// rotated wrap in 3D), at 1 and 8 ranks.
template <int D>
std::vector<Connectivity<D>> mutation_connectivities() {
  std::array<int, D> dims{};
  std::array<bool, D> per{};
  dims.fill(1);
  dims[0] = 3;
  if constexpr (D >= 2) dims[1] = 2;
  per[0] = true;
  if constexpr (D == 2) {
    return {Connectivity<D>::brick(dims, per), Connectivity<D>::moebius(3)};
  } else {
    return {Connectivity<D>::brick(dims, per), Connectivity<D>::ring(2, 5)};
  }
}

/// A graded, unbalanced forest on \p conn: uniform level 2, a hashed
/// recursive refine of tree 0, and a deep chain at its origin, with the
/// sweeps' entries cleared from the dirty log.  The other trees keep
/// complete level-2 families, and those next to tree 0 touch leaves two
/// or more levels finer than their parent: the coarsen veto's cases.
template <int D>
Forest<D> graded_forest(const Connectivity<D>& conn, int ranks,
                        std::uint64_t salt) {
  const int lmax = D == 2 ? 6 : 4;
  Forest<D> f(conn, ranks, 2);
  const auto chance = hashed<D>(salt, 0.45, lmax);
  f.refine([&](const TreeOct<D>& to) { return to.tree == 0 && chance(to); },
           true);
  f.refine(
      [lmax](const TreeOct<D>& to) {
        if (to.tree != 0 || to.oct.level >= lmax + 2) return false;
        for (int i = 0; i < D; ++i) {
          if (to.oct.x[i] != 0) return false;
        }
        return true;
      },
      true);
  f.clear_dirty();
  return f;
}

template <typename T>
class ForestMutation : public ::testing::Test {};
TYPED_TEST_SUITE(ForestMutation, Dims);

TYPED_TEST(ForestMutation, RefineMatchesSerialReference) {
  constexpr int D = TypeParam::d;
  ThreadGuard guard;
  for (const auto& conn : mutation_connectivities<D>()) {
    for (int ranks : {1, 8}) {
      const Forest<D> before = graded_forest<D>(conn, ranks, 11);
      const auto first = hashed<D>(5, 0.2);
      const auto want_first = reference::refine(before, first, false);
      ASSERT_FALSE(want_first.created.empty());
      for (bool recursive : {false, true}) {
        const auto pred = hashed<D>(23, 0.3, D == 2 ? 8 : 5);
        for (int threads : {1, 4, 8}) {
          par::set_num_threads(threads);
          const std::string what = "ranks=" + std::to_string(ranks) +
                                   " recursive=" +
                                   std::to_string(recursive) +
                                   " threads=" + std::to_string(threads);
          Forest<D> f = before;
          f.refine(first, false);
          expect_mutation(before, f, want_first, "first sweep " + what);
          // The second sweep appends to a non-empty dirty log.
          const Forest<D> mid = f;
          const auto want = reference::refine(mid, pred, recursive);
          ASSERT_FALSE(want.created.empty()) << what;
          f.refine(pred, recursive);
          expect_mutation(mid, f, want, what);
        }
      }
    }
  }
}

TYPED_TEST(ForestMutation, CoarsenVetoMatchesSerialReference) {
  constexpr int D = TypeParam::d;
  ThreadGuard guard;
  for (const auto& conn : mutation_connectivities<D>()) {
    for (int ranks : {1, 8}) {
      const Forest<D> before = graded_forest<D>(conn, ranks, 17);
      // Every family at level 3 or coarser votes to go; finer ones by
      // chance.
      const auto chance = hashed<D>(29, 0.8);
      const typename Forest<D>::RefinePred pred =
          [chance](const TreeOct<D>& to) {
            return to.oct.level <= 3 || chance(to);
          };
      std::size_t collapsed_k0 = 0;
      for (int k = 0; k <= D; ++k) {
        const auto want = reference::coarsen(before, pred, k);
        if (k == 0) collapsed_k0 = want.created.size();
        ASSERT_GT(want.created.size(), 0u);
        // The veto has teeth: the strictest condition keeps families the
        // unvetoed sweep collapses.
        if (k == D) {
          EXPECT_LT(want.created.size(), collapsed_k0);
        }
        for (int threads : {1, 4, 8}) {
          par::set_num_threads(threads);
          Forest<D> f = before;
          f.coarsen(pred, k);
          expect_mutation(before, f, want,
                          "ranks=" + std::to_string(ranks) +
                              " k=" + std::to_string(k) +
                              " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TYPED_TEST(ForestMutation, FrontChurnSequenceMatchesSerialReference) {
  // The churn benchmark's lifecycle at small size: refine to the moving
  // front, balance, coarsen the wake with the 2:1 veto, on 9 ranks.
  constexpr int D = TypeParam::d;
  ThreadGuard guard;
  std::array<int, D> dims{};
  dims.fill(1);
  dims[0] = 4;
  if constexpr (D >= 2) dims[1] = 4;
  const auto conn = Connectivity<D>::brick(dims);
  const int ranks = 9, lmax = D == 2 ? 7 : 5;
  ChurnFrontParams params;
  params.drift = 0.1;  // the wake clears the last step's front
  for (int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    Forest<D> f(conn, ranks, 2);
    for (int step = 0; step < 4; ++step) {
      const std::string at = "threads=" + std::to_string(threads) +
                             " step=" + std::to_string(step);
      const Forest<D> pre_refine = f;
      front_refine(f, lmax, params, step);
      expect_mutation(pre_refine, f,
                      reference::refine(pre_refine,
                                        front_refine_pred(conn, lmax, params,
                                                          step),
                                        true),
                      "refine " + at);
      SimComm comm(ranks);
      balance(f, BalanceOptions::new_config(), comm);
      const Forest<D> pre_coarsen = f;
      front_coarsen(f, params, step, D);
      const auto want = reference::coarsen(
          pre_coarsen, front_coarsen_pred(conn, params, step), D);
      if (step > 0) {
        EXPECT_FALSE(want.created.empty()) << at;
      }
      expect_mutation(pre_coarsen, f, want, "coarsen " + at);
    }
  }
}

TEST(ForestMutation, ThrowingPredicateLeavesForestUnchanged) {
  // Nothing is installed until every rank body has finished, so an
  // exception from the predicate on one rank leaves every rank as it was.
  ThreadGuard guard;
  par::set_num_threads(4);
  const Forest<2> before(Connectivity<2>::brick({2, 1}), 4, 3);
  const TreeOct<2> bad = before.local(2)[5];
  const typename Forest<2>::RefinePred pred = [&](const TreeOct<2>& to) {
    if (to == bad) throw std::runtime_error("predicate failed");
    return true;
  };
  Forest<2> f = before;
  EXPECT_THROW(f.refine(pred, false), std::runtime_error);
  EXPECT_THROW(f.coarsen(pred, 2), std::runtime_error);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(f.local(r), before.local(r));
  EXPECT_EQ(f.markers(), before.markers());
  EXPECT_TRUE(f.dirty().empty());
}

TEST(ForestMutation, MaxLevelLeavesAreKeptWithoutAsking) {
  // The RefinePred contract: refine never calls the predicate for a
  // max-level leaf and keeps it as it is, even when the predicate would
  // say yes to everything.
  constexpr int D = 2;
  ThreadGuard guard;
  par::set_num_threads(4);
  Forest<D> f(Connectivity<D>::brick({2, 1}), 1, 0);
  const auto at_origin = [](const TreeOct<D>& to) {
    return to.tree == 0 && to.oct.x[0] == 0 && to.oct.x[1] == 0;
  };
  f.refine(at_origin, true);  // a corner chain down to max_level
  Forest<D> g(f.connectivity(), 4, f.gather());
  const auto before = g.gather();
  std::size_t finest = 0;
  for (const auto& to : before) finest += to.oct.level == max_level<D>;
  ASSERT_EQ(finest, static_cast<std::size_t>(num_children<D>));
  std::atomic<std::size_t> calls{0}, at_max{0};
  g.refine(
      [&](const TreeOct<D>& to) {
        ++calls;
        if (to.oct.level >= max_level<D>) ++at_max;
        return true;
      },
      false);
  EXPECT_EQ(at_max.load(), 0u);
  EXPECT_EQ(calls.load(), before.size() - finest);
  EXPECT_EQ(g.global_num_octants(),
            finest + (before.size() - finest) * num_children<D>);
  std::size_t kept = 0;
  for (const auto& to : g.gather()) kept += to.oct.level == max_level<D>;
  // The old finest leaves, plus the children of the level max_level - 1
  // leaves that split.
  EXPECT_EQ(kept, finest + (num_children<D> - 1) * num_children<D>);
  EXPECT_TRUE(g.is_valid());
}

}  // namespace
}  // namespace octbal
