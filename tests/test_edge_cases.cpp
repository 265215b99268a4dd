/// \file test_edge_cases.cpp
/// \brief Edge cases of the distributed layer: more ranks than octants
/// (empty ranks), coarsening across partition boundaries, minimal forests,
/// degenerate balance inputs, and the checked constructor preconditions
/// (which throw in every build, NDEBUG included).

#include <gtest/gtest.h>

#include <stdexcept>

#include "comm/notify.hpp"
#include "core/balance_check.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/ripple.hpp"
#include "core/seeds.hpp"
#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

TEST(EmptyRanks, MoreRanksThanOctants) {
  // 2 trees at level 0 = 2 octants on 10 ranks: 8 ranks are empty.
  Forest<2> f(Connectivity<2>::brick({2, 1}), 10, 0);
  EXPECT_TRUE(f.is_valid());
  int nonempty = 0;
  for (int r = 0; r < 10; ++r) nonempty += !f.local(r).empty();
  EXPECT_EQ(nonempty, 2);
  // Balance must run through the empty ranks without touching them.
  SimComm comm(10);
  const auto rep = balance(f, BalanceOptions::new_config(), comm);
  EXPECT_TRUE(f.is_valid());
  EXPECT_EQ(rep.octants_after, 2u);
}

TEST(EmptyRanks, BalanceWithUnbalancedMeshAndEmptyRanks) {
  Forest<2> f(Connectivity<2>::unitcube(), 12, 1);  // 4 octants, 12 ranks
  f.refine(
      [](const TreeOct<2>& to) {
        return to.oct.level < 5 && to.oct.x[0] == 0 && to.oct.x[1] == 0;
      },
      true);
  // Do NOT repartition: keep empties in the middle of the rank list.
  const auto want = forest_balance_serial(f.gather(), f.connectivity(), 2);
  SimComm comm(12);
  balance(f, BalanceOptions::new_config(), comm);
  EXPECT_EQ(f.gather(), want);
}

TEST(EmptyRanks, GhostLayerSkipsEmptyRanks) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 8, 0);
  SimComm comm(8);
  const auto g = build_ghost_layer(f, 1, comm);
  std::size_t total = 0;
  for (const auto& v : g.per_rank) total += v.size();
  EXPECT_EQ(total, 2u);  // the two root leaves ghost each other
}

TEST(Coarsen, FamilySplitAcrossRanksIsNotMerged) {
  // 4 level-1 leaves over 2 ranks: the family straddles the boundary, so
  // an all-yes coarsen must be a no-op (coarsening may not move octants
  // between partitions).
  Forest<2> f(Connectivity<2>::unitcube(), 2, 1);
  ASSERT_EQ(f.local(0).size(), 2u);
  const auto before = f.gather();
  f.coarsen([](const TreeOct<2>&) { return true; });
  EXPECT_EQ(f.gather(), before);
  EXPECT_TRUE(f.is_valid());
}

TEST(Coarsen, FamilyWithinOneRankIsMerged) {
  Forest<2> f(Connectivity<2>::unitcube(), 2, 2);  // 16 leaves, 8 each
  const auto before = f.global_num_octants();
  f.coarsen([](const TreeOct<2>&) { return true; });
  // Each rank holds 8 = two full level-2 families: both merge.
  EXPECT_EQ(f.global_num_octants(), before - 2 * 2 * 3);
  EXPECT_TRUE(f.is_valid());
}

TEST(Minimal, SingleOctantForest) {
  Forest<3> f(Connectivity<3>::unitcube(), 1, 0);
  EXPECT_EQ(f.global_num_octants(), 1u);
  SimComm comm(1);
  const auto rep = balance(f, BalanceOptions::new_config(), comm);
  EXPECT_EQ(rep.octants_after, 1u);
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));
}

TEST(Minimal, RefineNothingIsIdentity) {
  Forest<2> f(Connectivity<2>::brick({3, 2}), 3, 2);
  const auto before = f.gather();
  f.refine([](const TreeOct<2>&) { return false; }, true);
  EXPECT_EQ(f.gather(), before);
}

TEST(Partition, RepartitionAfterBalancePreservesContent) {
  Rng rng(88);
  Forest<2> f(Connectivity<2>::brick({2, 1}), 6, 1);
  f.refine(
      [&](const TreeOct<2>& to) { return to.oct.level < 5 && rng.chance(0.3); },
      true);
  f.partition_uniform();
  SimComm comm(6);
  balance(f, BalanceOptions::new_config(), comm);
  const auto sum = forest_checksum(f);
  f.partition_uniform(&comm);
  EXPECT_EQ(forest_checksum(f), sum);
  EXPECT_TRUE(f.is_valid());
  // Still balanced after moving octants between ranks.
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 2));
}

TEST(Preconditions, UniformForestRejectsNoRanks) {
  EXPECT_THROW(Forest<2>(Connectivity<2>::unitcube(), 0, 1),
               std::invalid_argument);
  EXPECT_THROW(Forest<3>(Connectivity<3>::unitcube(), -4, 0),
               std::invalid_argument);
}

TEST(Preconditions, LeafForestRejectsNoRanks) {
  std::vector<TreeOct<2>> leaves{{0, root_octant<2>()}};
  EXPECT_THROW(Forest<2>(Connectivity<2>::unitcube(), 0, leaves),
               std::invalid_argument);
  EXPECT_THROW(Forest<2>(Connectivity<2>::unitcube(), -1, leaves),
               std::invalid_argument);
}

TEST(Preconditions, UniformForestRejectsLevelOutOfRange) {
  EXPECT_THROW(Forest<2>(Connectivity<2>::unitcube(), 1, -1),
               std::invalid_argument);
  EXPECT_THROW(Forest<3>(Connectivity<3>::unitcube(), 1, max_level<3> + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(Forest<1>(Connectivity<1>::unitcube(), 1, 0));
}

TEST(Preconditions, SimCommRejectsNoRanks) {
  EXPECT_THROW(SimComm(0), std::invalid_argument);
  EXPECT_THROW(SimComm(-3), std::invalid_argument);
  EXPECT_NO_THROW(SimComm(1));
}

TEST(Preconditions, SimCommSendRejectsRankOutsideComm) {
  SimComm c(2);
  EXPECT_THROW(c.send(0, 5, {1}), std::invalid_argument);
  EXPECT_THROW(c.send(2, 0, {1}), std::invalid_argument);
  EXPECT_THROW(c.send(-1, 0, {1}), std::invalid_argument);
  EXPECT_THROW(c.send(0, -1, {1}), std::invalid_argument);
  // Nothing was posted: the next round is empty and deliver() is safe.
  c.deliver();
  EXPECT_EQ(c.stats().messages, 0u);
  EXPECT_NO_THROW(c.send(1, 0, {1}));
}

TEST(Preconditions, SimCommRecvAllRejectsRankOutsideComm) {
  SimComm c(2);
  EXPECT_THROW(c.recv_all(2), std::invalid_argument);
  EXPECT_THROW(c.recv_all(-1), std::invalid_argument);
  EXPECT_TRUE(c.recv_all(1).empty());
}

TEST(Preconditions, NotifyNaiveRejectsWrongListCount) {
  SimComm c(4);
  EXPECT_THROW(notify_naive(c, {{1}, {0}}), std::invalid_argument);
}

TEST(Preconditions, NotifyRangesRejectsWrongListCount) {
  SimComm c(4);
  EXPECT_THROW(notify_ranges(c, {{1}, {0}}, 2), std::invalid_argument);
}

TEST(Preconditions, NotifyRangesRejectsNoRanges) {
  SimComm c(2);
  EXPECT_THROW(notify_ranges(c, {{1}, {0}}, 0), std::invalid_argument);
  EXPECT_THROW(notify_ranges(c, {{1}, {0}}, -2), std::invalid_argument);
  EXPECT_EQ(notify_ranges(c, {{1}, {0}}, 1),
            (std::vector<std::vector<int>>{{1}, {0}}));
}

TEST(Preconditions, NotifyDcRejectsWrongListCount) {
  SimComm c(4);
  EXPECT_THROW(notify_dc(c, {{1}, {0}}), std::invalid_argument);
  EXPECT_THROW(notify_dc(c, std::vector<std::vector<int>>(5)),
               std::invalid_argument);
}

TEST(Preconditions, CoarsenRejectsBalanceKOutOfRange) {
  // balance_k indexes the neighbor-offset table: past D it would read
  // beyond it in a release build.  Nothing is collapsed before the throw.
  Forest<2> f(Connectivity<2>::unitcube(), 1, 2);
  const auto all = [](const TreeOct<2>&) { return true; };
  EXPECT_THROW(f.coarsen(all, 3), std::invalid_argument);
  EXPECT_THROW(f.coarsen(all, -1), std::invalid_argument);
  EXPECT_EQ(f.global_num_octants(), 16u);
  EXPECT_NO_THROW(f.coarsen(all, 2));
  EXPECT_EQ(f.global_num_octants(), 4u);
}

TEST(Preconditions, BalanceSubtreeOldRejectsNonLinearInput) {
  const auto root = root_octant<2>();
  const auto c0 = child(root, 0), c3 = child(root, 3);
  // Unsorted, and an ancestor next to its descendant.
  EXPECT_THROW(balance_subtree_old<2>({c3, c0}, 2, root),
               std::invalid_argument);
  EXPECT_THROW(balance_subtree_old<2>({c0, child(c0, 1)}, 2, root),
               std::invalid_argument);
  EXPECT_EQ(balance_subtree_old<2>({c0, c3}, 2, root).size(), 4u);
}

TEST(Preconditions, BalanceSubtreeNewRejectsNonLinearInput) {
  const auto root = root_octant<3>();
  const auto c0 = child(root, 0), c7 = child(root, 7);
  EXPECT_THROW(balance_subtree_new<3>({c7, c0}, 3, root),
               std::invalid_argument);
  EXPECT_THROW(balance_subtree_new<3>({c0, c0}, 3, root),
               std::invalid_argument);
  EXPECT_EQ(balance_subtree_new<3>({c0, c7}, 3, root).size(), 8u);
}

TEST(Preconditions, BalanceSubtreeOldRejectsKOutOfRange) {
  // k indexes the neighbor-offset table: 0 would read before it in a
  // release build, and D + 1 names no boundary object.
  const auto root = root_octant<2>();
  const std::vector<Octant<2>> s{child(child(root, 0), 3)};
  for (int k : {0, -1, 3}) {
    EXPECT_THROW(balance_subtree_old<2>(s, k, root), std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_EQ(balance_subtree_old<2>(s, 2, root),
            balance_subtree_new<2>(s, 2, root));
}

TEST(Preconditions, BalanceSubtreeNewRejectsKOutOfRange) {
  const auto root = root_octant<3>();
  const std::vector<Octant<3>> s{child(child(root, 0), 7)};
  for (int k : {0, -2, 4}) {
    EXPECT_THROW(balance_subtree_new<3>(s, k, root), std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_EQ(balance_subtree_new<3>(s, 3, root).size(), 15u);
}

TEST(Preconditions, BalanceSeedsRejectsKOutOfRangeAndOverlap) {
  const auto root = root_octant<2>();
  // o is a fine octant of child 0 touching r = child 1 across their face.
  const Octant<2> o = child(child(child(child(root, 0), 1), 1), 1);
  const Octant<2> r = child(root, 1);
  for (int k : {0, -1, 3}) {
    EXPECT_THROW(balance_seeds<2>(o, r, k), std::invalid_argument)
        << "k=" << k;
  }
  // Overlapping o and r: equal, o inside r, r inside o.
  EXPECT_THROW(balance_seeds<2>(r, r, 1), std::invalid_argument);
  EXPECT_THROW(balance_seeds<2>(child(r, 2), r, 1), std::invalid_argument);
  EXPECT_THROW(balance_seeds<2>(root, r, 1), std::invalid_argument);
  EXPECT_FALSE(balance_seeds<2>(o, r, 1).empty());
}

// The serial oracles index the same offset table as the kernels they
// check; k = D + 1 comes first because it is the one value a release
// build without the check answers silently instead of reading past it.

TEST(Preconditions, BalanceCheckRejectsKOutOfRange) {
  const auto root = root_octant<2>();
  const std::vector<Octant<2>> t = complete<2>({child(root, 0)}, root);
  Octant<2> a, b;
  for (int k : {3, 0, -1}) {
    EXPECT_THROW(is_balanced<2>(t, k, root), std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(find_violation<2>(t, k, root, &a, &b),
                 std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_TRUE(is_balanced<2>(t, 2, root));
}

TEST(Preconditions, RippleOraclesRejectKOutOfRangeAndOverlap) {
  const auto root = root_octant<2>();
  const Octant<2> o = child(child(child(root, 0), 1), 1);
  const Octant<2> r = child(root, 1);
  for (int k : {3, 0, -1}) {
    EXPECT_THROW(ripple_balance<2>({o}, k, root), std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(tk_of<2>(o, k, root), std::invalid_argument) << "k=" << k;
    EXPECT_THROW(balanced_pair_oracle<2>(o, r, k, root),
                 std::invalid_argument)
        << "k=" << k;
  }
  // Overlapping o and r: equal, and o inside r.
  EXPECT_THROW(balanced_pair_oracle<2>(r, r, 1, root), std::invalid_argument);
  EXPECT_THROW(balanced_pair_oracle<2>(child(r, 2), r, 1, root),
               std::invalid_argument);
  EXPECT_EQ(ripple_balance<2>({o}, 2, root), tk_of<2>(o, 2, root));
  EXPECT_FALSE(balanced_pair_oracle<2>(o, r, 1, root));
}

TEST(Preconditions, NeighborhoodsRejectKOutOfRange) {
  const auto root = root_octant<2>();
  const Octant<2> o = child(child(root, 0), 3);
  std::vector<Octant<2>> out;
  for (int k : {3, 0, -1}) {
    EXPECT_THROW(coarse_neighborhood<2>(o, k, root, out),
                 std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(same_size_neighborhood<2>(o, k, root, out),
                 std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_TRUE(out.empty());
  same_size_neighborhood<2>(o, 2, root, out);
  EXPECT_EQ(out.size(), 8u);
}

TEST(Preconditions, ForestOraclesRejectKOutOfRange) {
  const auto conn = Connectivity<2>::brick({2, 1});
  const std::vector<TreeOct<2>> leaves = Forest<2>(conn, 1, 1).gather();
  BalanceViolation<2> v;
  for (int k : {3, 0, -1}) {
    EXPECT_THROW(forest_find_violation<2>(leaves, conn, k, &v),
                 std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(forest_is_balanced<2>(leaves, conn, k),
                 std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(forest_balance_serial<2>(leaves, conn, k),
                 std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_TRUE(forest_is_balanced<2>(leaves, conn, 2));
  EXPECT_EQ(forest_balance_serial<2>(leaves, conn, 2), leaves);
}

TEST(Preconditions, BrickRejectsEmptyAxis) {
  EXPECT_THROW(Connectivity<2>::brick({2, 0}), std::invalid_argument);
  EXPECT_THROW(Connectivity<3>::brick({-1, 1, 1}), std::invalid_argument);
  EXPECT_EQ(Connectivity<3>::brick({2, 1, 3}).num_trees(), 6);
}

TEST(Preconditions, GeneralRejectsFaceTableSizeMismatch) {
  std::vector<std::array<FaceGlue, 4>> faces(2);
  EXPECT_THROW(Connectivity<2>::general(3, faces), std::invalid_argument);
  EXPECT_THROW(Connectivity<2>::general(-2, {}), std::invalid_argument);
  EXPECT_EQ(Connectivity<2>::general(2, faces).num_trees(), 2);
}

}  // namespace
}  // namespace octbal
