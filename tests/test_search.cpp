/// \file test_search.cpp
/// \brief Tests for linear-octree point location: the
/// find_containing_leaf of nodes_reference.hpp, which the node-numbering
/// references use, against brute force, on complete trees and on sets
/// with gaps.

#include <gtest/gtest.h>

#include "nodes_reference.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

template <typename T>
class SearchTest : public ::testing::Test {};
template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(SearchTest, Dims);

template <int D>
std::size_t brute_locate(const std::vector<Octant<D>>& leaves,
                         const std::array<coord_t, D>& pt) {
  Octant<D> cell;
  cell.level = max_level<D>;
  cell.x = pt;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (contains(leaves[i], cell)) return i;
  }
  return npos;
}

TYPED_TEST(SearchTest, FindContainingLeafMatchesBruteForce) {
  constexpr int D = TypeParam::d;
  Rng rng(901);
  const auto root = root_octant<D>();
  const auto t = random_complete_tree(rng, root, 6, 300);
  for (int i = 0; i < 500; ++i) {
    std::array<coord_t, D> pt{};
    for (int d = 0; d < D; ++d) {
      pt[d] = static_cast<coord_t>(rng.below(root_len<D>));
    }
    EXPECT_EQ(reference::find_containing_leaf<D>(t, pt),
              brute_locate<D>(t, pt));
  }
}

TYPED_TEST(SearchTest, GapsReportNpos) {
  constexpr int D = TypeParam::d;
  Rng rng(902);
  const auto root = root_octant<D>();
  const auto s = random_linear_set(rng, root, 5, 10);  // incomplete
  int found = 0, missing = 0;
  for (int i = 0; i < 300; ++i) {
    std::array<coord_t, D> pt{};
    for (int d = 0; d < D; ++d) {
      pt[d] = static_cast<coord_t>(rng.below(root_len<D>));
    }
    const auto idx = reference::find_containing_leaf<D>(s, pt);
    EXPECT_EQ(idx, brute_locate<D>(s, pt));
    (idx == npos ? missing : found)++;
  }
  EXPECT_GT(missing, 0);  // an incomplete set has gaps
}

}  // namespace
}  // namespace octbal
