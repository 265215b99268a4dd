/// \file test_workloads.cpp
/// \brief Tests for the evaluation workloads (fractal rule and synthetic
/// ice sheet) plus high-level balance properties on them: idempotence,
/// partition invariance, and coarsen/balance interplay.

#include <gtest/gtest.h>

#include <stdexcept>

#include "forest/balance.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Fractal, GrowsDeterministically) {
  Forest<3> a(Connectivity<3>::brick({3, 2, 1}), 2, 2);
  Forest<3> b(Connectivity<3>::brick({3, 2, 1}), 5, 2);
  fractal_refine(a, 4);
  fractal_refine(b, 4);
  // Independent of the rank count.
  EXPECT_EQ(a.gather(), b.gather());
  EXPECT_TRUE(a.is_valid());
  // The rule splits half the child ids: growth factor per level in (4, 5].
  const auto h = level_histogram(a);
  ASSERT_TRUE(h.count(4));
  EXPECT_GT(h.at(4), h.count(3) ? h.at(3) : 0);
}

TEST(Fractal, RespectsMaxLevel) {
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  fractal_refine(f, 5);
  for (const auto& to : f.gather()) {
    EXPECT_LE(to.oct.level, 5);
    EXPECT_GE(to.oct.level, 1);
  }
}

TEST(IceSheet, RefinesOnlyNearGroundingLine) {
  Forest<2> f(Connectivity<2>::brick({4, 4}), 1, 1);
  icesheet_refine(f, 6);
  const auto h = level_histogram(f);
  ASSERT_TRUE(h.count(6));
  // The curve is codimension one: fine cells ~ O(length/h), so level-6
  // cells must be far fewer than a full uniform level-6 mesh.
  const std::uint64_t full = 16ull << (2 * 6);
  EXPECT_LT(h.at(6), full / 8);
  EXPECT_GT(h.at(6), 16u);  // but the curve is resolved
  // Coarse cells survive away from the curve.
  EXPECT_TRUE(h.count(1) || h.count(2));
}

TEST(IceSheet, DeterministicForFixedSeed) {
  IceSheetParams p;
  Forest<2> a(Connectivity<2>::brick({2, 2}), 1, 1);
  Forest<2> b(Connectivity<2>::brick({2, 2}), 3, 1);
  icesheet_refine(a, 5, p);
  icesheet_refine(b, 5, p);
  EXPECT_EQ(a.gather(), b.gather());
  p.seed = 999;
  Forest<2> c(Connectivity<2>::brick({2, 2}), 1, 1);
  icesheet_refine(c, 5, p);
  EXPECT_NE(a.gather(), c.gather());
}

TEST(IceSheet, ThreeDRefinementStaysInGroundedBand) {
  Forest<3> f(Connectivity<3>::brick({3, 3, 2}), 1, 1);
  IceSheetParams p;
  p.zfrac = 0.25;
  icesheet_refine(f, 4, p);
  const double fz = 2.0 * root_len<3>;
  for (const auto& to : f.gather()) {
    if (to.oct.level <= 1) continue;
    const auto tc = f.connectivity().tree_coords(to.tree);
    const double z0 = (tc[2] * static_cast<double>(root_len<3>) + to.oct.x[2]) / fz;
    EXPECT_LE(z0, p.zfrac + 0.51) << to_string(to.oct);
  }
}

TEST(BalanceProperty, Idempotent) {
  // Balancing a balanced forest changes nothing and moves (almost) no data.
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), 6, 1);
  fractal_refine(f, 4);
  f.partition_uniform();
  SimComm comm(6);
  balance(f, BalanceOptions::new_config(), comm);
  const auto once = f.gather();
  SimComm comm2(6);
  const auto rep = balance(f, BalanceOptions::new_config(), comm2);
  EXPECT_EQ(f.gather(), once);
  EXPECT_EQ(rep.octants_before, rep.octants_after);
  // Queries still flow (every boundary octant asks its insulation owners),
  // but no response may carry seeds: nothing is unbalanced.
  EXPECT_GT(rep.queries_sent, 0u);
  EXPECT_EQ(rep.response_items, 0u);
}

TEST(BalanceProperty, ResultIndependentOfPartition) {
  // The balanced forest is a function of the mesh only, not of P or of the
  // partition boundaries.
  std::vector<TreeOct<3>> results[3];
  int idx = 0;
  for (int p : {1, 3, 8}) {
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), p, 1);
    icesheet_refine(f, 4);
    if (p == 3) {
      // Skew the partition on purpose.
      f.partition_weighted(
          [](const TreeOct<3>& to) { return to.tree == 0 ? 10 : 1; });
    } else {
      f.partition_uniform();
    }
    SimComm comm(p);
    balance(f, BalanceOptions::new_config(), comm);
    results[idx++] = f.gather();
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(BalanceProperty, OldAndNewAgreeOnWorkloads) {
  for (int lmax : {3, 4}) {
    Forest<3> a(Connectivity<3>::brick({2, 2, 1}), 4, 1);
    Forest<3> b(Connectivity<3>::brick({2, 2, 1}), 4, 1);
    icesheet_refine(a, lmax);
    icesheet_refine(b, lmax);
    a.partition_uniform();
    b.partition_uniform();
    SimComm ca(4), cb(4);
    balance(a, BalanceOptions::new_config(), ca);
    balance(b, BalanceOptions::old_config(), cb);
    EXPECT_EQ(a.gather(), b.gather()) << "lmax=" << lmax;
    EXPECT_LE(ca.stats().bytes, cb.stats().bytes);
  }
}

TEST(BalanceProperty, CoarsenThenBalanceStaysValid) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 3, 2);
  fractal_refine(f, 6);
  f.partition_uniform();
  // Coarsen everything coarsenable once, then balance.
  f.coarsen([](const TreeOct<2>&) { return true; });
  EXPECT_TRUE(f.is_valid());
  SimComm comm(3);
  balance(f, BalanceOptions::new_config(), comm);
  EXPECT_TRUE(f.is_valid());
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 2));
}

TEST(RandomRefine, ThrowsOnMoreThanOneRank) {
  // Its draws follow the SFC order, which the rank workers of a multi-rank
  // refine do not keep.
  Forest<2> f(Connectivity<2>::brick({2, 1}), 3, 1);
  const auto before = f.gather();
  Rng rng(5);
  EXPECT_THROW(random_refine(f, rng, 4, 0.3), std::invalid_argument);
  EXPECT_EQ(f.gather(), before);
  Forest<2> one(Connectivity<2>::brick({2, 1}), 1, 1);
  EXPECT_NO_THROW(random_refine(one, rng, 4, 0.3));
  EXPECT_GT(one.global_num_octants(), before.size());
}

TEST(RandomRefine, RandomForestSplitsTheOneRankLeavesEvenly) {
  const auto conn = Connectivity<3>::brick({2, 1, 1}, {true, false, false});
  Rng a(77), b(77);
  Forest<3> one(conn, 1, 1);
  random_refine(one, a, 4, 0.35);
  const Forest<3> f = random_forest(conn, 5, 1, b, 4, 0.35);
  EXPECT_EQ(f.gather(), one.gather());
  EXPECT_EQ(a.next(), b.next());  // the same number of draws
  const std::uint64_t n = f.global_num_octants();
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t extra = static_cast<std::uint64_t>(r) < n % 5;
    EXPECT_EQ(f.local(r).size(), n / 5 + extra);
  }
  EXPECT_TRUE(f.is_valid());
}

TEST(BalanceProperty, WeakerConditionNeedsFewerOctants) {
  std::uint64_t sizes[3];
  for (int k = 1; k <= 3; ++k) {
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 2, 1);
    icesheet_refine(f, 4);
    f.partition_uniform();
    SimComm comm(2);
    BalanceOptions opt = BalanceOptions::new_config();
    opt.k = k;
    balance(f, opt, comm);
    sizes[k - 1] = f.global_num_octants();
  }
  EXPECT_LE(sizes[0], sizes[1]);
  EXPECT_LE(sizes[1], sizes[2]);
}

}  // namespace
}  // namespace octbal
