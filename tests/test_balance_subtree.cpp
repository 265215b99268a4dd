/// \file test_balance_subtree.cpp
/// \brief The central correctness tests of Section III: both subtree
/// balance algorithms must reproduce the ripple oracle exactly — on
/// complete and incomplete inputs, in 1D/2D/3D, for every balance
/// condition k — and the new algorithm must beat the old one on the
/// operation counts the paper claims.  The SubtreeDifferential suite holds
/// the packed-key kernels and their Octant<D> adapters to the coordinate
/// reference in subtree_reference.hpp: the same output and the same six
/// SubtreeBalanceStats counters.

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/balance_check.hpp"
#include "core/balance_subtree.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/ripple.hpp"
#include "core/seeds.hpp"
#include "util/rng.hpp"
#include "subtree_reference.hpp"

namespace octbal {
namespace {

template <typename T>
class SubtreeTest : public ::testing::Test {};
template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(SubtreeTest, Dims);

TYPED_TEST(SubtreeTest, BalancedInputIsAFixedPoint) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  // A uniformly refined tree is trivially balanced: both algorithms must
  // return it unchanged.
  std::vector<Octant<D>> t{root};
  for (int lvl = 0; lvl < 2; ++lvl) {
    std::vector<Octant<D>> next;
    for (const auto& o : t)
      for (int c = 0; c < num_children<D>; ++c) next.push_back(child(o, c));
    t = next;
  }
  std::sort(t.begin(), t.end());
  for (int k = 1; k <= D; ++k) {
    EXPECT_EQ(balance_subtree_old(t, k, root), t);
    EXPECT_EQ(balance_subtree_new(t, k, root), t);
  }
}

TYPED_TEST(SubtreeTest, MatchesRippleOracleOnRandomCompleteTrees) {
  constexpr int D = TypeParam::d;
  Rng rng(51);
  const auto root = root_octant<D>();
  const int max_lvl = D == 3 ? 4 : 5;
  for (int iter = 0; iter < (D == 3 ? 10 : 25); ++iter) {
    const auto s = random_complete_tree(rng, root, max_lvl, D == 3 ? 60 : 80);
    for (int k = 1; k <= D; ++k) {
      const auto want = ripple_balance(s, k, root);
      const auto got_old = balance_subtree_old(s, k, root);
      const auto got_new = balance_subtree_new(s, k, root);
      EXPECT_EQ(got_old, want) << "old algorithm, k=" << k << " iter=" << iter;
      EXPECT_EQ(got_new, want) << "new algorithm, k=" << k << " iter=" << iter;
    }
  }
}

TYPED_TEST(SubtreeTest, MatchesRippleOracleOnIncompleteInputs) {
  constexpr int D = TypeParam::d;
  Rng rng(52);
  const auto root = root_octant<D>();
  const int max_lvl = D == 3 ? 4 : 5;
  for (int iter = 0; iter < (D == 3 ? 10 : 25); ++iter) {
    const auto s = random_linear_set(rng, root, max_lvl, 12);
    if (s.empty()) continue;
    for (int k = 1; k <= D; ++k) {
      const auto want = ripple_balance(s, k, root);
      EXPECT_EQ(balance_subtree_old(s, k, root), want)
          << "old, k=" << k << " iter=" << iter;
      EXPECT_EQ(balance_subtree_new(s, k, root), want)
          << "new, k=" << k << " iter=" << iter;
    }
  }
}

TYPED_TEST(SubtreeTest, OutputIsBalancedCompleteLinear) {
  constexpr int D = TypeParam::d;
  Rng rng(53);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 10; ++iter) {
    const auto s = random_linear_set(rng, root, D == 3 ? 5 : 7, 25);
    if (s.empty()) continue;
    for (int k = 1; k <= D; ++k) {
      const auto out = balance_subtree_new(s, k, root);
      EXPECT_TRUE(is_linear(out));
      EXPECT_TRUE(is_complete(out, root));
      Octant<D> a, b;
      EXPECT_FALSE(find_violation(out, k, root, &a, &b))
          << to_string(a) << " vs " << to_string(b) << " k=" << k;
      // Inputs survive as leaves (inputs here are mutually balanced or get
      // refined; either way each input region is covered at >= its level).
      for (const auto& o : s) {
        const auto [lo, hi] = overlapping_range(out, o);
        ASSERT_LT(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_GE(out[i].level, o.level) << "input " << to_string(o)
                                           << " was coarsened";
        }
      }
    }
  }
}

TYPED_TEST(SubtreeTest, ResultIsCoarsest) {
  constexpr int D = TypeParam::d;
  Rng rng(54);
  const auto root = root_octant<D>();
  // Coarsening any complete family that is not required by the input makes
  // the tree either unbalanced or drops an input leaf.
  for (int iter = 0; iter < 5; ++iter) {
    const auto s = random_linear_set(rng, root, D == 3 ? 4 : 5, 8);
    if (s.empty()) continue;
    const int k = 1 + iter % D;
    const auto out = balance_subtree_new(s, k, root);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].level == 0 || child_id(out[i]) != 0) continue;
      bool fam = true;
      for (int c = 1; c < num_children<D>; ++c) {
        if (i + c >= out.size() || out[i + c] != sibling(out[i], c)) {
          fam = false;
          break;
        }
      }
      if (!fam) continue;
      // Replace the family by its parent and check something breaks.
      std::vector<Octant<D>> coarser;
      coarser.reserve(out.size());
      for (std::size_t j = 0; j < i; ++j) coarser.push_back(out[j]);
      coarser.push_back(parent(out[i]));
      for (std::size_t j = i + num_children<D>; j < out.size(); ++j)
        coarser.push_back(out[j]);
      // Only a *strict* ancestor of an input octant drops that input leaf;
      // if the parent equals an input, coarsening restores it.
      bool drops_input = false;
      for (const auto& o : s) {
        if (is_ancestor(parent(out[i]), o)) {
          drops_input = true;
          break;
        }
      }
      EXPECT_TRUE(drops_input || !is_balanced(coarser, k, root))
          << "family of " << to_string(out[i])
          << " could be coarsened without breaking anything, k=" << k;
    }
  }
}

TYPED_TEST(SubtreeTest, SingleDeepOctantProducesRippleProfile) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  // Balancing a single deep octant yields exactly Tk(o) (Figure 3).
  auto o = root;
  for (int i = 0; i < (D == 3 ? 4 : 6); ++i) o = child(o, i % num_children<D>);
  for (int k = 1; k <= D; ++k) {
    const auto want = tk_of(o, k, root);
    EXPECT_EQ(balance_subtree_old({o}, k, root), want);
    EXPECT_EQ(balance_subtree_new({o}, k, root), want);
  }
}

TYPED_TEST(SubtreeTest, NewUsesFewerHashQueriesAndSmallerSort) {
  constexpr int D = TypeParam::d;
  Rng rng(55);
  const auto root = root_octant<D>();
  const auto s = random_complete_tree(rng, root, D == 3 ? 4 : 6, 500);
  SubtreeBalanceStats so, sn;
  balance_subtree_old(s, D, root, &so);
  balance_subtree_new(s, D, root, &sn);
  EXPECT_LT(sn.hash_queries, so.hash_queries);
  EXPECT_LT(sn.sorted_octants, so.sorted_octants);
  EXPECT_EQ(sn.output_octants, so.output_octants);
}

TYPED_TEST(SubtreeTest, SubtreeRootOtherThanGlobalRoot) {
  constexpr int D = TypeParam::d;
  Rng rng(56);
  const auto sub = child(child(root_octant<D>(), num_children<D> - 1), 0);
  for (int iter = 0; iter < 10; ++iter) {
    const auto s = random_linear_set(rng, sub, D == 3 ? 6 : 7, 10);
    if (s.empty()) continue;
    for (int k = 1; k <= D; ++k) {
      const auto want = ripple_balance(s, k, sub);
      EXPECT_EQ(balance_subtree_old(s, k, sub), want);
      EXPECT_EQ(balance_subtree_new(s, k, sub), want);
    }
  }
}

TEST(SubtreeEdge, RootOnlyInput) {
  const auto root = root_octant<2>();
  const std::vector<Oct2> s{root};
  EXPECT_EQ(balance_subtree_old(s, 1, root), s);
  EXPECT_EQ(balance_subtree_new(s, 1, root), s);
}

TEST(SubtreeEdge, RootLeafYieldsToExteriorRipple) {
  // A tree that is a single root leaf receiving an exterior constraint: the
  // ripple refines the tree, and the root leaf — which reduce() can never
  // preclude, because the root has no parent and sits outside the
  // preclusion order — must yield.  The new algorithm used to emit the
  // root alongside the forced octants, handing complete() a non-linear
  // array and silently corrupting the result (found via an unbalanced
  // forest on a periodic 3D brick whose coarsest tree was a bare root).
  constexpr int D = 3;
  const auto root = root_octant<D>();
  for (int k = 1; k <= D; ++k) {
    Octant<D> ext;  // just outside the low-x face of the root
    ext.level = 4;
    ext.x[0] = -side_len(ext);
    ext.x[1] = ext.x[2] = 0;
    std::vector<Octant<D>> s{ext, root};
    ASSERT_TRUE(is_linear(s));
    const auto got = balance_subtree_new(s, k, root);
    EXPECT_TRUE(is_linear(got)) << "k=" << k;
    EXPECT_TRUE(is_complete(got, root)) << "k=" << k;
    EXPECT_TRUE(is_balanced(got, k, root)) << "k=" << k;
    EXPECT_GT(got.size(), 1u) << "k=" << k;
    EXPECT_EQ(got, balance_subtree_old(s, k, root)) << "k=" << k;
  }
}

TEST(SubtreeEdge, EmptyInputCompletesToRoot) {
  const auto root = root_octant<2>();
  const std::vector<Oct2> s{};
  const std::vector<Oct2> want{root};
  EXPECT_EQ(balance_subtree_new(s, 1, root), want);
}

template <typename T>
class SubtreeDifferential : public ::testing::Test {};
TYPED_TEST_SUITE(SubtreeDifferential, Dims);

std::array<std::uint64_t, 6> fields(const SubtreeBalanceStats& s) {
  return {s.hash_queries,    s.hash_probes,    s.hash_rehash_probes,
          s.binary_searches, s.sorted_octants, s.output_octants};
}

/// Both algorithms, through the Octant<D> adapter and the key kernel, must
/// give the reference's output and counters on the sorted linear \p s.
template <int D>
void expect_matches_reference(const std::vector<Octant<D>>& s, int k,
                              const Octant<D>& root, const std::string& what) {
  ASSERT_TRUE(is_linear(s)) << what;
  for (const auto algo : {SubtreeAlgo::kOld, SubtreeAlgo::kNew}) {
    const std::string where = what + (algo == SubtreeAlgo::kOld ? " old" : " new") +
                              " k=" + std::to_string(k);
    SubtreeBalanceStats want, got, keyed;
    const auto ref = reference::balance_subtree(algo, s, k, root, &want);
    EXPECT_EQ(balance_subtree(algo, s, k, root, &got), ref) << where;
    EXPECT_EQ(fields(got), fields(want)) << where;
    EXPECT_EQ(balance_subtree<D>(algo, octants_to_keys(s), k, key_of(root),
                                 &keyed),
              octants_to_keys(ref))
        << where;
    EXPECT_EQ(fields(keyed), fields(want)) << where;
  }
}

/// \p s moved by \p off root sides: a neighbour tree's octants in this
/// tree's frame.
template <int D>
std::vector<Octant<D>> shifted(std::vector<Octant<D>> s,
                               const std::array<int, D>& off) {
  for (auto& o : s) {
    for (int i = 0; i < D; ++i) o.x[i] += off[i] * root_len<D>;
  }
  return s;
}

TYPED_TEST(SubtreeDifferential, RandomCompleteInputs) {
  constexpr int D = TypeParam::d;
  Rng rng(61);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 8; ++iter) {
    const auto s = random_complete_tree(rng, root, D == 3 ? 5 : 7,
                                        D == 3 ? 300 : 400);
    for (int k = 1; k <= D; ++k) {
      expect_matches_reference(s, k, root, "iter " + std::to_string(iter));
    }
  }
}

TYPED_TEST(SubtreeDifferential, RandomIncompleteInputs) {
  constexpr int D = TypeParam::d;
  Rng rng(62);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 12; ++iter) {
    const auto s = random_linear_set(rng, root, D == 3 ? 8 : 12, 30);
    for (int k = 1; k <= D; ++k) {
      expect_matches_reference(s, k, root, "iter " + std::to_string(iter));
    }
  }
}

TYPED_TEST(SubtreeDifferential, ExteriorConstraintsFromANeighborFrame) {
  // A run plus octants of the neighbour tree across a face, edge or corner,
  // as the old-configuration rebalance receives them.
  constexpr int D = TypeParam::d;
  Rng rng(63);
  const auto root = root_octant<D>();
  const auto& offs = full_offsets<D>();
  for (int iter = 0; iter < 12; ++iter) {
    auto s = random_complete_tree(rng, root, D == 3 ? 4 : 6, 60);
    const auto& off = offs[rng.below(offs.size())];
    const auto ext =
        shifted<D>(random_linear_set(rng, root, D == 3 ? 7 : 9, 12), off);
    s.insert(s.end(), ext.begin(), ext.end());
    linearize(s);
    for (int k = 1; k <= D; ++k) {
      expect_matches_reference(s, k, root, "iter " + std::to_string(iter));
    }
  }
}

TYPED_TEST(SubtreeDifferential, SeedGroupsUnderASubtreeRoot) {
  // The grouped rebalance: the seeds of several fine octants outside a
  // leaf r, balanced with r as the root.
  constexpr int D = TypeParam::d;
  Rng rng(64);
  const auto root = root_octant<D>();
  int groups = 0;
  for (int iter = 0; iter < 400 && groups < 40; ++iter) {
    const auto r = random_octant(rng, root, 3);
    const int k = 1 + static_cast<int>(rng.below(D));
    std::vector<Octant<D>> seeds;
    for (int j = 0; j < 4; ++j) {
      const auto o = random_octant(rng, root, D == 3 ? 7 : 9);
      if (overlaps(o, r)) continue;
      const auto more = balance_seeds(o, r, k);
      seeds.insert(seeds.end(), more.begin(), more.end());
    }
    if (seeds.empty()) continue;
    ++groups;
    linearize(seeds);
    expect_matches_reference(seeds, k, r, "root " + to_string(r));
  }
  EXPECT_GE(groups, 10);
}

TYPED_TEST(SubtreeDifferential, LoneRootLeafYieldsToExteriorRipple) {
  // The case of SubtreeEdge.RootLeafYieldsToExteriorRipple, in every
  // dimension and at several depths of the exterior constraint.
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (int level = 2; level <= 6; level += 2) {
    Octant<D> ext;  // just outside the low-x face of the root
    ext.level = static_cast<level_t>(level);
    ext.x[0] = -side_len(ext);
    for (int k = 1; k <= D; ++k) {
      expect_matches_reference<D>({ext, root}, k, root,
                                  "level " + std::to_string(level));
    }
  }
}

}  // namespace
}  // namespace octbal
