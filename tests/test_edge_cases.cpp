/// \file test_edge_cases.cpp
/// \brief Edge cases of the distributed layer: more ranks than octants
/// (empty ranks), coarsening across partition boundaries, minimal forests,
/// degenerate balance inputs, and the checked preconditions of the
/// constructors and kernels (which throw in every build, NDEBUG included).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "comm/notify.hpp"
#include "core/balance_check.hpp"
#include "core/balance_subtree.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/reduce.hpp"
#include "core/ripple.hpp"
#include "core/seeds.hpp"
#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

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
  auto f = random_forest(Connectivity<2>::brick({2, 1}), 6, 1, rng, 5, 0.3);
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

/// Runs \p call, which must throw std::invalid_argument whose message
/// names balance_subtree and contains \p what.
template <class Call>
void expect_subtree_rejects(Call call, const std::string& what) {
  try {
    call();
    ADD_FAILURE() << "no exception; want one naming " << what;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("balance_subtree"), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(Preconditions, BalanceSubtreeRejectsInvalidRoot) {
  const std::vector<Octant<2>> s{child(child(root_octant<2>(), 0), 3)};
  Octant<2> coarse;  // level -1: no octant of the tree
  coarse.level = -1;
  Octant<2> deep;
  deep.level = max_level<2> + 1;
  Octant<2> misaligned = child(root_octant<2>(), 0);
  misaligned.x[1] = 1;
  Octant<2> outside = child(root_octant<2>(), 0);
  outside.x[0] = root_len<2>;
  for (const auto& root : {coarse, deep, misaligned, outside}) {
    for (int k = 1; k <= 2; ++k) {
      expect_subtree_rejects([&] { balance_subtree_new<2>(s, k, root); },
                             "root");
      expect_subtree_rejects([&] { balance_subtree_old<2>(s, k, root); },
                             "root");
    }
  }
}

TEST(Preconditions, BalanceSubtreeRejectsNonExtendedValidInput) {
  const auto root = root_octant<2>();
  Octant<2> misaligned;  // a level-1 octant anchored at (1, 0)
  misaligned.level = 1;
  misaligned.x = {1, 0};
  Octant<2> too_deep;
  too_deep.level = max_level<2> + 3;
  Octant<2> far;  // 3R outside the root: beyond the exterior headroom
  far.x = {3 * root_len<2>, 0};
  for (const auto& o : {misaligned, too_deep, far}) {
    const std::vector<Octant<2>> s{o};
    expect_subtree_rejects([&] { balance_subtree_new<2>(s, 2, root); },
                           "extended-valid");
    expect_subtree_rejects([&] { balance_subtree_old<2>(s, 2, root); },
                           "extended-valid");
  }
}

TEST(Preconditions, BalanceSubtreeRejectsInputOutsideHalo) {
  // The halo of a level-1 subtree root reaches half a tree past it; an
  // extended-valid octant beyond it is no constraint the root can feel.
  const auto sub = child(root_octant<2>(), 0);
  Octant<2> beyond = child(child(child(root_octant<2>(), 0), 0), 0);
  beyond.x[0] += root_len<2>;
  const std::vector<Octant<2>> s{beyond};
  ASSERT_TRUE(is_extended_valid(beyond));
  for (int k = 1; k <= 2; ++k) {
    expect_subtree_rejects([&] { balance_subtree_new<2>(s, k, sub); },
                           "halo");
    expect_subtree_rejects([&] { balance_subtree_old<2>(s, k, sub); },
                           "halo");
  }
  // The key kernels reject what no octant packs to: key 0.
  const std::vector<okey_t> bad{0};
  expect_subtree_rejects(
      [&] { balance_subtree_new<2>(bad, 2, key_of(sub)); }, "extended-valid");
  // Just inside the halo is accepted.
  beyond.x[0] -= side_len(beyond);
  EXPECT_NO_THROW(balance_subtree_new<2>({beyond}, 2, sub));
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
  }
  EXPECT_TRUE(out.empty());
  coarse_neighborhood<2>(o, 2, root, out);
  EXPECT_EQ(out.size(), 3u);
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

/// Inputs complete() and complete_keys() must reject: unsorted, a
/// duplicate, an ancestor before its descendant, and an element outside
/// the root.  Each pair is (input, root).
std::vector<std::pair<std::vector<Oct2>, Oct2>> bad_complete_inputs() {
  const Oct2 root = root_octant<2>();
  const Oct2 a = child(root, 0), b = child(root, 3);
  return {{{b, a}, root},
          {{a, a}, root},
          {{a, child(a, 2)}, root},
          {{child(a, 1), child(b, 0)}, a}};
}

TEST(Preconditions, CompleteRejectsNonLinearOrOutsideRoot) {
  for (const auto& [in, root] : bad_complete_inputs()) {
    EXPECT_THROW(complete(in, root), std::invalid_argument)
        << to_string(in.front()) << " in " << to_string(root);
  }
  const Oct2 root = root_octant<2>();
  EXPECT_EQ(complete(std::vector<Oct2>{child(root, 1)}, root).size(), 4u);
}

/// Octants key_of cannot pack: a misaligned anchor, a level past
/// max_level, and an anchor beyond the extended range.
std::vector<Oct2> non_extended_valid_octants() {
  Oct2 misaligned;
  misaligned.x = {1, 0};
  misaligned.level = 1;
  Oct2 too_deep;
  too_deep.level = max_level<2> + 1;
  Oct2 too_far;
  too_far.x = {2 * root_len<2>, 0};
  too_far.level = 1;
  return {misaligned, too_deep, too_far};
}

TEST(Preconditions, CompleteRejectsNonExtendedValidOctants) {
  const Oct2 root = root_octant<2>();
  for (const Oct2& bad : non_extended_valid_octants()) {
    EXPECT_THROW(complete(std::vector<Oct2>{bad}, root), std::invalid_argument)
        << to_string(bad);
    EXPECT_THROW(complete(std::vector<Oct2>{}, bad), std::invalid_argument)
        << to_string(bad);
  }
}

TEST(Preconditions, ReduceRejectsNonExtendedValidOctants) {
  const Oct2 root = root_octant<2>();
  for (const Oct2& bad : non_extended_valid_octants()) {
    EXPECT_THROW(reduce(std::vector<Oct2>{child(root, 0), bad}),
                 std::invalid_argument)
        << to_string(bad);
  }
  EXPECT_EQ(reduce(std::vector<Oct2>{child(root, 1)}).size(), 1u);
}

TEST(Preconditions, CompleteKeysRejectsNonLinearOrOutsideRoot) {
  for (const auto& [in, root] : bad_complete_inputs()) {
    const std::vector<okey_t> keys = octants_to_keys(in);
    EXPECT_THROW(complete_keys<2>(keys, key_of(root)), std::invalid_argument)
        << to_string(in.front()) << " in " << to_string(root);
  }
  const std::vector<okey_t> one{key_of(child(root_octant<2>(), 1))};
  EXPECT_EQ(complete_keys<2>(one, key_of(root_octant<2>())).size(), 4u);
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

/// A two-tree table whose tree 0 has \p glue across its +x face.
template <int D>
std::vector<std::array<FaceGlue, 2 * D>> one_glue(FaceGlue glue) {
  std::vector<std::array<FaceGlue, 2 * D>> faces(2);
  faces[0][1] = glue;
  return faces;
}

TEST(Preconditions, GeneralRejectsGlueTreeOutOfRange) {
  // validate() used to index glue_[tree] past the table for such a tree.
  for (const int tree : {2, 7, -2}) {
    EXPECT_THROW(Connectivity<2>::general(2, one_glue<2>({tree, 0, 0})),
                 std::invalid_argument)
        << tree;
    EXPECT_THROW(Connectivity<3>::general(2, one_glue<3>({tree, 0, 0})),
                 std::invalid_argument)
        << tree;
  }
  EXPECT_EQ(Connectivity<2>::general(2, one_glue<2>({-1, 0, 0})).num_trees(),
            2);
}

TEST(Preconditions, GeneralRejectsGlueFaceOutOfRange) {
  // validate() used to read glue[tree][face] past the row for such a face.
  for (const int face : {4, -1}) {
    EXPECT_THROW(Connectivity<2>::general(
                     2, one_glue<2>({1, static_cast<std::int8_t>(face), 0})),
                 std::invalid_argument)
        << face;
  }
  for (const int face : {6, 100, -3}) {
    EXPECT_THROW(Connectivity<3>::general(
                     2, one_glue<3>({1, static_cast<std::int8_t>(face), 0})),
                 std::invalid_argument)
        << face;
  }
  EXPECT_EQ(Connectivity<3>::general(2, one_glue<3>({1, 5, 0})).num_trees(),
            2);
}

TEST(Preconditions, GeneralRejectsGlueOrientOutOfRange) {
  EXPECT_THROW(Connectivity<2>::general(2, one_glue<2>({1, 0, 2})),
               std::invalid_argument);
  EXPECT_THROW(Connectivity<2>::general(2, one_glue<2>({1, 0, 255})),
               std::invalid_argument);
  EXPECT_THROW(Connectivity<3>::general(2, one_glue<3>({1, 0, 8})),
               std::invalid_argument);
  EXPECT_EQ(Connectivity<2>::general(2, one_glue<2>({1, 0, 1})).num_trees(), 2);
  EXPECT_EQ(Connectivity<3>::general(2, one_glue<3>({1, 0, 7})).num_trees(), 2);
}

}  // namespace
}  // namespace octbal
