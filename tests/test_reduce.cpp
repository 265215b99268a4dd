/// \file test_reduce.cpp
/// \brief Tests for Reduce (Figure 8): compression of complete linear
/// octrees via preclusion, the complete∘reduce round trip, the 1/2^d size
/// bound, and the single-binary-search preclusion lookup.

#include <gtest/gtest.h>

#include "core/linear.hpp"
#include "core/reduce.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

template <typename T>
class ReduceTest : public ::testing::Test {};

template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(ReduceTest, Dims);

TYPED_TEST(ReduceTest, ReduceOfRootIsRoot) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  const auto r = reduce<D>({root});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], root);
}

TYPED_TEST(ReduceTest, ReduceOfOneFamilyIsItsZeroChild) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  std::vector<Octant<D>> fam;
  for (int i = 0; i < num_children<D>; ++i) fam.push_back(child(root, i));
  const auto r = reduce(fam);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], child(root, 0));
}

TYPED_TEST(ReduceTest, CompleteReduceRoundTripOnCompleteTrees) {
  constexpr int D = TypeParam::d;
  Rng rng(31);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 40; ++iter) {
    const auto t = random_complete_tree(rng, root, 6, 150);
    const auto r = reduce(t);
    EXPECT_TRUE(is_linear(r));
    const auto back = complete(r, root);
    EXPECT_EQ(back, t) << "round trip failed at iteration " << iter;
  }
}

TYPED_TEST(ReduceTest, ReduceCompressesByAtLeastTwoToTheD) {
  constexpr int D = TypeParam::d;
  Rng rng(32);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 20; ++iter) {
    const auto t = random_complete_tree(rng, root, 6, 300);
    if (t.size() < 2) continue;
    const auto r = reduce(t);
    EXPECT_LE(r.size(), t.size() / num_children<D> + 1)
        << "|R| = " << r.size() << ", |S| = " << t.size();
  }
}

TYPED_TEST(ReduceTest, ReducedSetHasNoPreclusionPairs) {
  constexpr int D = TypeParam::d;
  Rng rng(33);
  const auto root = root_octant<D>();
  const auto t = random_complete_tree(rng, root, 5, 120);
  const auto r = reduce(t);
  for (std::size_t i = 0; i < r.size(); ++i) {
    for (std::size_t j = 0; j < r.size(); ++j) {
      if (i == j || r[i].level == 0 || r[j].level == 0) continue;
      EXPECT_FALSE(precludes_lt(r[i], r[j]))
          << to_string(r[i]) << " precludes " << to_string(r[j]);
    }
  }
}

TYPED_TEST(ReduceTest, AllElementsAreZeroSiblings) {
  constexpr int D = TypeParam::d;
  Rng rng(34);
  const auto root = root_octant<D>();
  const auto t = random_complete_tree(rng, root, 6, 200);
  for (const auto& o : reduce(t)) {
    EXPECT_EQ(o, zero_sibling(o));
  }
}

TYPED_TEST(ReduceTest, FindPrecludingLeMatchesLinearScan) {
  constexpr int D = TypeParam::d;
  Rng rng(35);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 20; ++iter) {
    const auto t = random_complete_tree(rng, root, 5, 80);
    const auto r = reduce(t);
    const auto rk = octants_to_keys(r);
    for (int q = 0; q < 100; ++q) {
      auto probe = random_octant(rng, root, 5);
      if (probe.level == 0) continue;
      const std::size_t idx = find_precluding_le<D>(rk, key_of(probe));
      // Linear scan for any element preclusion-below the probe.
      std::size_t expect = npos;
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (r[i].level == 0) continue;
        if (precludes_le(r[i], probe)) {
          expect = i;
          break;
        }
      }
      EXPECT_EQ(idx, expect) << "probe " << to_string(probe);
    }
  }
}

TYPED_TEST(ReduceTest, ReduceOnIncompleteLinearSetsStaysLinearish) {
  constexpr int D = TypeParam::d;
  Rng rng(36);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 20; ++iter) {
    const auto s = random_linear_set(rng, root, 6, 30);
    if (s.empty()) continue;
    const auto r = reduce(s);
    // No preclusion pairs remain even for incomplete inputs.
    for (std::size_t i = 0; i + 1 < r.size(); ++i) {
      EXPECT_TRUE(r[i] < r[i + 1]);
      if (r[i].level > 0 && r[i + 1].level > 0) {
        EXPECT_FALSE(precludes_lt(r[i], r[i + 1]));
        EXPECT_FALSE(precludes_lt(r[i + 1], r[i]));
      }
    }
  }
}

}  // namespace
}  // namespace octbal
