/// \file test_extensions.cpp
/// \brief Tests for the extension features: scrambled message delivery
/// (failure injection for ordering assumptions), Morton key round-trips,
/// linear curve indices, forest checksums/statistics, and the paper's
/// insulation-layer theorem.

#include <gtest/gtest.h>


#include "comm/notify.hpp"
#include "core/insulation.hpp"
#include "core/lambda.hpp"
#include "forest/balance.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(FailureInjection, BalanceIsOrderIndependent) {
  // Scramble every inbox: the full distributed pipeline must still produce
  // the exact serial result (no hidden dependence on delivery order).
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(4242);
    auto f = random_forest(Connectivity<2>::brick({2, 1}), 5, 1, rng, 5, 0.35);
    f.partition_uniform();
    const auto want = forest_balance_serial(f.gather(), f.connectivity(), 2);
    SimComm comm(5);
    comm.set_scramble(seed);
    balance(f, BalanceOptions::new_config(), comm);
    EXPECT_EQ(f.gather(), want) << "scramble seed " << seed;
  }
}

TEST(FailureInjection, NotifyIsOrderIndependent) {
  Rng rng(55);
  const int p = 13;
  std::vector<std::vector<int>> receivers(p);
  for (int q = 0; q < p; ++q) {
    for (int r = 0; r < p; ++r) {
      if (rng.chance(0.25)) receivers[q].push_back(r);
    }
  }
  SimComm a(p), b(p);
  b.set_scramble(99);
  EXPECT_EQ(notify_dc(a, receivers), notify_dc(b, receivers));
}

template <typename T>
class KeyTest : public ::testing::Test {};
template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(KeyTest, Dims);

TYPED_TEST(KeyTest, MortonKeyRoundTrip) {
  constexpr int D = TypeParam::d;
  Rng rng(71);
  const auto root = root_octant<D>();
  for (int i = 0; i < 500; ++i) {
    const auto o = random_octant(rng, root, max_level<D>);
    EXPECT_EQ(octant_from_key<D>(morton_key(o), o.level), o);
  }
  // Extended (exterior) octants round-trip too.
  for (int i = 0; i < 200; ++i) {
    auto o = random_octant(rng, root, max_level<D> - 1);
    o.x[0] -= root_len<D>;  // shift fully outside
    ASSERT_TRUE(is_extended_valid(o));
    EXPECT_EQ(octant_from_key<D>(morton_key(o), o.level), o);
  }
}

TYPED_TEST(KeyTest, LinearIndexIsCurvePosition) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  // All level-2 octants in Morton order have indices 0 .. 4^D-1.
  std::vector<Octant<D>> all;
  for (int a = 0; a < num_children<D>; ++a) {
    for (int b = 0; b < num_children<D>; ++b) {
      all.push_back(child(child(root, a), b));
    }
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(linear_index(all[i]), i);
  }
}

TEST(Checksum, PartitionIndependentContentSensitive) {
  Forest<2> a(Connectivity<2>::brick({2, 1}), 1, 1);
  Forest<2> b(Connectivity<2>::brick({2, 1}), 7, 1);
  fractal_refine(a, 5);
  fractal_refine(b, 5);
  b.partition_uniform();
  EXPECT_EQ(forest_checksum(a), forest_checksum(b));
  // Any change to the mesh changes the checksum.
  a.refine([](const TreeOct<2>& to) { return to.oct.level == 5; }, false);
  EXPECT_NE(forest_checksum(a), forest_checksum(b));
}

TEST(Stats, ReportSummaries) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 4, 2);
  const auto s = forest_stats(f);
  EXPECT_EQ(s.leaves, 32u);
  EXPECT_EQ(s.min_level, 2);
  EXPECT_EQ(s.max_level_seen, 2);
  EXPECT_DOUBLE_EQ(s.avg_level, 2.0);
  EXPECT_EQ(s.min_per_rank, 8u);
  EXPECT_EQ(s.max_per_rank, 8u);
}

TEST(InsulationTheorem, UnbalancedPairsLieInTheInsulationLayer) {
  // Section II-B: two octants o, r can be unbalanced only if o is inside
  // I(r) (o finer) or vice versa.  Property-checked on random pairs
  // against the O(1) decision procedure.
  Rng rng(2012);
  const auto root = root_octant<2>();
  int unbalanced_seen = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto o = random_octant(rng, root, 10);
    const auto r = random_octant(rng, root, 10);
    if (overlaps(o, r) || r.level > o.level || o.level == 0) continue;
    for (int k = 1; k <= 2; ++k) {
      if (!balanced_pair(o, r, k)) {
        ++unbalanced_seen;
        EXPECT_TRUE(in_insulation(o, r))
            << to_string(o) << " unbalances " << to_string(r)
            << " from outside I(r), k=" << k;
      }
    }
  }
  EXPECT_GT(unbalanced_seen, 50);  // the property was actually exercised
}

}  // namespace
}  // namespace octbal
