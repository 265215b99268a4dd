/// \file test_lambda_differential.cpp
/// \brief The λ decisions of core/lambda.hpp against a test-only copy of the
/// linear scan they replaced: finest_exp_in (a bisection over the monotone
/// admissibility), balanced_pair (one chain_reaches call at r's size) and
/// closest_balanced must agree with the scan on every pair.  Over a million
/// random pairs per (D, k), near and far, inside the root and in the
/// exterior frame, plus the edge cases: r containing o, r a sibling of o,
/// and pairs whose answer is the largest exponent e_max.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/lambda.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

/// ō: o's anchor clamped into r's anchor grid.
template <int D>
Octant<D> closest_contained(const Octant<D>& o, const Octant<D>& r) {
  Octant<D> c;
  c.level = o.level;
  const coord_t span = side_len(r) - side_len(o);
  for (int i = 0; i < D; ++i) {
    coord_t v = o.x[i];
    if (v < r.x[i]) v = r.x[i];
    const coord_t hi = r.x[i] + span;
    if (v > hi) v = hi;
    c.x[i] = v;
  }
  return c;
}

/// The finest exponent by the ascending scan: grow the dyadic block around
/// ō one exponent at a time until the chain reaches it, dividing each gap
/// by h.
template <int D>
int scan_finest_exp_in(const Octant<D>& o, const Octant<D>& r, int k) {
  const int l = size_exp(o);
  if (contains(r, o)) return l;
  const Octant<D> obar = closest_contained(o, r);
  const Octant<D> p = parent(o);
  if (obar.level > 0 && parent(obar).x == p.x) return l;
  const scoord_t h = side_len(o);
  const int e_max = max_level<D> - l;
  int e = 0;
  while (e < e_max) {
    const int cand = e + 1;
    const coord_t mask = ~((coord_t{1} << (max_level<D> - o.level + cand)) - 1);
    std::array<std::uint64_t, D> g{};
    for (int i = 0; i < D; ++i) {
      const scoord_t blo = obar.x[i] & mask;
      const scoord_t bhi = blo + (h << cand);
      const scoord_t flo = p.x[i], fhi = flo + 2 * h;
      if (blo >= fhi) {
        g[i] = static_cast<std::uint64_t>((blo - fhi) / h) + 1;
      } else if (flo >= bhi) {
        g[i] = static_cast<std::uint64_t>((flo - bhi) / h) + 1;
      } else {
        g[i] = 0;
      }
    }
    if (chain_reaches<D>(g, cand, k)) break;
    e = cand;
  }
  return l + e;
}

template <int D>
Octant<D> scan_closest_balanced(const Octant<D>& o, const Octant<D>& r,
                                int k) {
  const int e = scan_finest_exp_in(o, r, k);
  const int er = size_exp(r);
  return ancestor(closest_contained(o, r), max_level<D> - (e < er ? e : er));
}

/// A random octant at \p level with anchor in the extended range
/// [-root_len, 2 root_len) when \p exterior, else inside the root.
template <int D>
Octant<D> random_at(Rng& rng, int level, bool exterior) {
  Octant<D> o;
  o.level = static_cast<level_t>(level);
  const int shift = max_level<D> - level;
  const std::uint64_t cells = std::uint64_t{1} << level;
  for (int i = 0; i < D; ++i) {
    const std::int64_t c =
        exterior ? static_cast<std::int64_t>(rng.below(3 * cells)) -
                       static_cast<std::int64_t>(cells)
                 : static_cast<std::int64_t>(rng.below(cells));
    o.x[i] = static_cast<coord_t>(c << shift);
  }
  return o;
}

/// A pair (o, r) with size(r) >= size(o): a third fully random, the rest
/// with r placed a few of its own sizes from o, where the decisions are
/// not trivially balanced.
template <int D>
std::pair<Octant<D>, Octant<D>> random_pair(Rng& rng) {
  const bool exterior = rng.chance(0.25);
  const int lo = static_cast<int>(1 + rng.below(max_level<D>));
  const Octant<D> o = random_at<D>(rng, lo, exterior);
  const int lr =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(lo) + 1));
  if (rng.chance(1.0 / 3)) return {o, random_at<D>(rng, lr, exterior)};
  Octant<D> r;
  r.level = static_cast<level_t>(lr);
  const scoord_t hr = scoord_t{1} << (max_level<D> - lr);
  for (int i = 0; i < D; ++i) {
    const scoord_t step = static_cast<scoord_t>(rng.below(7)) - 3;
    scoord_t c = (static_cast<scoord_t>(o.x[i]) & ~(hr - 1)) + step * hr;
    c = std::max<scoord_t>(c, -scoord_t{root_len<D>});
    c = std::min<scoord_t>(c, 2 * scoord_t{root_len<D>} - hr);
    r.x[i] = static_cast<coord_t>(c);
  }
  return {o, r};
}

template <int D>
void random_pairs_agree(std::uint64_t seed, int pairs) {
  for (int k = 1; k <= D; ++k) {
    Rng rng(seed + static_cast<std::uint64_t>(k));
    int disjoint = 0, unbalanced = 0;
    for (int n = 0; n < pairs; ++n) {
      const auto [o, r] = random_pair<D>(rng);
      const int want = scan_finest_exp_in(o, r, k);
      ASSERT_EQ(finest_exp_in(o, r, k), want)
          << "D=" << D << " k=" << k << " o=" << to_string(o)
          << " r=" << to_string(r);
      ASSERT_EQ(closest_balanced(o, r, k), scan_closest_balanced(o, r, k))
          << "D=" << D << " k=" << k << " o=" << to_string(o)
          << " r=" << to_string(r);
      if (overlaps(o, r)) continue;
      ++disjoint;
      const bool bal = want >= size_exp(r);
      if (!bal) ++unbalanced;
      ASSERT_EQ(balanced_pair(o, r, k), bal)
          << "D=" << D << " k=" << k << " o=" << to_string(o)
          << " r=" << to_string(r);
    }
    // The sample exercised both answers.
    EXPECT_GT(disjoint, pairs / 2);
    EXPECT_GT(unbalanced, pairs / 100);
  }
}

constexpr int kPairs = 1000000;

TEST(LambdaDifferential, RandomPairs1D) { random_pairs_agree<1>(7001, kPairs); }
TEST(LambdaDifferential, RandomPairs2D) { random_pairs_agree<2>(7002, kPairs); }
TEST(LambdaDifferential, RandomPairs3D) { random_pairs_agree<3>(7003, kPairs); }

template <int D>
void edge_cases_agree() {
  Rng rng(7100 + D);
  for (int k = 1; k <= D; ++k) {
    for (int n = 0; n < 2000; ++n) {
      const int lo = static_cast<int>(1 + rng.below(max_level<D>));
      const Octant<D> o = random_at<D>(rng, lo, false);
      // r contains o: the finest leaf is o itself.
      const auto up = ancestor(o, static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(lo) + 1)));
      EXPECT_EQ(finest_exp_in(o, up, k), size_exp(o));
      EXPECT_EQ(finest_exp_in(o, up, k), scan_finest_exp_in(o, up, k));
      EXPECT_EQ(closest_balanced(o, up, k), o);
      // ō a sibling: balanced at o's size.
      const auto sib = sibling(o, static_cast<int>(rng.below(num_children<D>)));
      if (sib != o) {
        EXPECT_EQ(finest_exp_in(o, sib, k), size_exp(o));
        EXPECT_EQ(scan_finest_exp_in(o, sib, k), size_exp(o));
        EXPECT_TRUE(balanced_pair(o, sib, k));
        EXPECT_EQ(closest_balanced(o, sib, k), sib);
      }
    }
    // e_max: a level-1 octant and a level-1 block at the far end of the
    // exterior frame — the chain never reaches, so the answer is the
    // root-sized exponent.
    Octant<D> o, far;
    o.level = far.level = 1;
    for (int i = 0; i < D; ++i) {
      o.x[i] = 0;
      far.x[i] = root_len<D> + root_len<D> / 2;
    }
    EXPECT_EQ(scan_finest_exp_in(o, far, k), max_level<D>);
    EXPECT_EQ(finest_exp_in(o, far, k), max_level<D>);
    EXPECT_TRUE(balanced_pair(o, far, k));
    // And the deepest octants, whose search range is the widest:
    // e_max = max_level above a finest cell.
    for (int n = 0; n < 2000; ++n) {
      const Octant<D> fine = random_at<D>(rng, max_level<D>, n % 2 == 1);
      const Octant<D> r = random_at<D>(
          rng, static_cast<int>(rng.below(max_level<D> + 1)), n % 2 == 1);
      EXPECT_EQ(finest_exp_in(fine, r, k), scan_finest_exp_in(fine, r, k))
          << "o=" << to_string(fine) << " r=" << to_string(r);
    }
  }
}

TEST(LambdaDifferential, EdgeCases1D) { edge_cases_agree<1>(); }
TEST(LambdaDifferential, EdgeCases2D) { edge_cases_agree<2>(); }
TEST(LambdaDifferential, EdgeCases3D) { edge_cases_agree<3>(); }

}  // namespace
}  // namespace octbal
