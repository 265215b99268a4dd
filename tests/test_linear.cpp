/// \file test_linear.cpp
/// \brief Tests for linearize, completion, gap filling and range searches
/// on linear octrees.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/linear.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

template <typename T>
class LinearTest : public ::testing::Test {};

template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(LinearTest, Dims);

TYPED_TEST(LinearTest, LinearizeRemovesAncestorsAndDuplicates) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  std::vector<Octant<D>> v;
  const auto c = child(root, 0);
  const auto cc = child(c, 1);
  v.push_back(root);
  v.push_back(c);
  v.push_back(c);
  v.push_back(cc);
  linearize(v);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], cc);
  EXPECT_TRUE(is_linear(v));
}

TYPED_TEST(LinearTest, LinearizeKeepsDisjointOctants) {
  constexpr int D = TypeParam::d;
  Rng rng(21);
  const auto root = root_octant<D>();
  auto v = random_linear_set(rng, root, 8, 200);
  EXPECT_TRUE(is_linear(v));
  // Every surviving pair is disjoint.
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    EXPECT_FALSE(overlaps(v[i], v[i + 1])) << to_string(v[i]) << " overlaps "
                                           << to_string(v[i + 1]);
  }
}

TYPED_TEST(LinearTest, RandomCompleteTreeIsCompleteAndLinear) {
  constexpr int D = TypeParam::d;
  Rng rng(22);
  const auto root = root_octant<D>();
  const auto t = random_complete_tree(rng, root, 7, 300);
  EXPECT_TRUE(is_linear(t));
  EXPECT_TRUE(is_complete(t, root));
}

TYPED_TEST(LinearTest, CompleteOfEmptyIsTheRoot) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  const auto t = complete<D>({}, root);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], root);
}

TYPED_TEST(LinearTest, CompleteKeepsInputsAsLeavesAndIsCoarsest) {
  constexpr int D = TypeParam::d;
  Rng rng(23);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 30; ++iter) {
    const auto s = random_linear_set(rng, root, 6, 20);
    const auto t = complete(s, root);
    EXPECT_TRUE(is_linear(t));
    EXPECT_TRUE(is_complete(t, root));
    // Inputs appear verbatim.
    for (const auto& o : s) {
      EXPECT_NE(binary_find(t, o), npos) << to_string(o);
    }
    // Coarsest: replacing any complete non-input family by its parent must
    // still be possible only if it would overlap an input octant.
    for (std::size_t i = 0; i + num_children<D> <= t.size(); ++i) {
      if (t[i].level == 0 || child_id(t[i]) != 0) continue;
      bool fam = true;
      for (int c = 1; c < num_children<D>; ++c) {
        if (!(i + c < t.size() && t[i + c] == sibling(t[i], c))) {
          fam = false;
          break;
        }
      }
      if (!fam) continue;
      // A full non-input family could be coarsened; completion must only
      // produce it if some input octant lives inside the parent.
      bool contains_input = false;
      const auto p = parent(t[i]);
      for (const auto& o : s) {
        if (contains(p, o)) {
          contains_input = true;
          break;
        }
      }
      EXPECT_TRUE(contains_input)
          << "family of " << to_string(t[i]) << " could be coarsened";
    }
  }
}

TYPED_TEST(LinearTest, FillGapProducesExactTiling) {
  constexpr int D = TypeParam::d;
  Rng rng(24);
  const auto root = root_octant<D>();
  for (int iter = 0; iter < 50; ++iter) {
    auto s = random_linear_set(rng, root, 6, 2);
    if (s.size() != 2) continue;
    // Complete fills the gap between s0 and s1; the slice from s0 to s1
    // tiles [begin(s0), end(s1)) contiguously.
    const auto t = complete(s, root);
    const auto lo = std::find(t.begin(), t.end(), s[0]);
    const auto hi = std::find(t.begin(), t.end(), s[1]);
    ASSERT_TRUE(lo < hi && hi != t.end());
    for (auto it = lo; it != hi; ++it) {
      EXPECT_LT(*it, *(it + 1));
      EXPECT_FALSE(overlaps(*it, *(it + 1)));
      EXPECT_EQ(key_interval_end<D>(key_of(*it)),
                key_interval_begin<D>(key_of(*(it + 1))));
    }
  }
}

TYPED_TEST(LinearTest, OverlappingRangeFindsDescendantsAndAncestors) {
  constexpr int D = TypeParam::d;
  Rng rng(25);
  const auto root = root_octant<D>();
  const auto t = random_complete_tree(rng, root, 6, 200);
  for (int iter = 0; iter < 200; ++iter) {
    const auto q = random_octant(rng, root, 6);
    const auto [lo, hi] = overlapping_range(t, q);
    // Everything in range overlaps, everything outside does not.
    for (std::size_t i = 0; i < t.size(); ++i) {
      const bool in = i >= lo && i < hi;
      EXPECT_EQ(in, overlaps(t[i], q))
          << to_string(t[i]) << " vs " << to_string(q);
    }
  }
}

TYPED_TEST(LinearTest, BinaryFindAgreesWithLinearScan) {
  constexpr int D = TypeParam::d;
  Rng rng(26);
  const auto root = root_octant<D>();
  const auto t = random_complete_tree(rng, root, 6, 100);
  for (int iter = 0; iter < 100; ++iter) {
    const auto q = random_octant(rng, root, 6);
    const auto idx = binary_find(t, q);
    const auto it = std::find(t.begin(), t.end(), q);
    if (it == t.end()) {
      EXPECT_EQ(idx, npos);
    } else {
      EXPECT_EQ(idx, static_cast<std::size_t>(it - t.begin()));
    }
  }
}

TYPED_TEST(LinearTest, CompleteWithinSubtreeRoot) {
  constexpr int D = TypeParam::d;
  Rng rng(27);
  const auto sub = child(child(root_octant<D>(), 1), 0);
  const auto s = random_linear_set(rng, sub, 8, 10);
  const auto t = complete(s, sub);
  EXPECT_TRUE(is_complete(t, sub));
  for (const auto& o : t) EXPECT_TRUE(contains(sub, o));
}

}  // namespace
}  // namespace octbal
