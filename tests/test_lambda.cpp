/// \file test_lambda.cpp
/// \brief Exhaustive validation of Section IV / Table II: the O(1)
/// functions λ(δ̄) and Carry3 must reproduce, for *every* octant pair in a
/// small domain, the leaf sizes of the oracle-built coarsest balanced
/// octree Tk(o) — for all dimensions and all balance conditions.

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/lambda.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/ripple.hpp"
#include "core/seeds.hpp"
#include "forest/connectivity.hpp"

namespace octbal {
namespace {

TEST(Carry3, MatchesBitDefinitionOnSmallNumbers) {
  // Reference: add three numbers bit by bit, carrying only on >= 3 ones,
  // then take the resulting value; carry3() must dominate via max with the
  // plain operands (only the most significant bit is used downstream).
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      for (std::uint64_t c = 0; c < 16; ++c) {
        const std::uint64_t s = a + b + c - (a | b | c);
        std::uint64_t m = std::max({a, b, c});
        EXPECT_EQ(carry3(a, b, c), std::max(s, m));
      }
    }
  }
}

TEST(Carry3, SymmetricAndMonotone) {
  EXPECT_EQ(carry3(5, 9, 3), carry3(9, 3, 5));
  for (std::uint64_t a = 0; a < 32; ++a) {
    EXPECT_GE(carry3(a + 1, 7, 9), carry3(a, 7, 9));
    EXPECT_GE(carry3(a, 0, 0), a);
  }
}

/// Enumerate every valid octant of level in [lmin, lmax] inside root.
template <int D>
std::vector<Octant<D>> all_octants(int lmin, int lmax) {
  std::vector<Octant<D>> out;
  std::vector<Octant<D>> frontier{root_octant<D>()};
  for (int lvl = 1; lvl <= lmax; ++lvl) {
    std::vector<Octant<D>> next;
    for (const auto& p : frontier)
      for (int c = 0; c < num_children<D>; ++c) next.push_back(child(p, c));
    frontier = next;
    if (lvl >= lmin) out.insert(out.end(), next.begin(), next.end());
  }
  if (lmin == 0) out.push_back(root_octant<D>());
  return out;
}

/// Oracle: size exponent of the finest leaf of \p t overlapping \p r.
template <int D>
int oracle_finest_exp(const std::vector<Octant<D>>& t, const Octant<D>& r) {
  const auto [lo, hi] = overlapping_range(t, r);
  int best = max_level<D> + 1;
  for (std::size_t i = lo; i < hi; ++i) {
    best = std::min(best, size_exp(t[i]));
  }
  return best;
}

template <int D>
void exhaustive_check(int lmax) {
  const auto root = root_octant<D>();
  const auto octs = all_octants<D>(1, lmax);
  std::uint64_t checked = 0;
  for (int k = 1; k <= D; ++k) {
    for (const auto& o : octs) {
      const auto t = tk_of(o, k, root);
      for (const auto& r : octs) {
        if (r.level > o.level) continue;       // λ defined for size(r)>=size(o)
        if (overlaps(r, o) && r != o) {
          // r contains o: the finest leaf in r is o itself.
          ASSERT_EQ(finest_exp_in(o, r, k), size_exp(o));
          continue;
        }
        if (r == o) continue;
        const int want = oracle_finest_exp(t, r);
        const int got = finest_exp_in(o, r, k);
        ASSERT_EQ(got, want)
            << "D=" << D << " k=" << k << " o=" << to_string(o)
            << " r=" << to_string(r);
        // The balanced-pair predicate is consistent with the oracle
        // definition: no leaf of Tk(o) inside r may be finer than r.
        ASSERT_EQ(balanced_pair(o, r, k), want >= size_exp(r));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(LambdaExhaustive, OneD) { exhaustive_check<1>(6); }
TEST(LambdaExhaustive, TwoD) { exhaustive_check<2>(4); }
TEST(LambdaExhaustive, ThreeD) { exhaustive_check<3>(3); }

/// Reference for chain_reaches: brute-force enumeration of every
/// step-to-axes assignment (each step i in [1, e-1] serves any subset of
/// at most k axes with 2^i each).
template <int D>
bool chain_reaches_brute(const std::array<std::uint64_t, D>& g, int e,
                         int k) {
  std::vector<int> axes;
  for (int a = 0; a < D; ++a)
    if (g[a] > 0) axes.push_back(a);
  if (axes.empty()) return true;
  std::vector<int> subs;
  for (int s = 0; s < (1 << D); ++s)
    if (std::popcount(static_cast<unsigned>(s)) <= k) subs.push_back(s);
  const int n = e - 1;
  std::vector<int> choice(n, 0);
  while (true) {
    bool ok = true;
    for (int a : axes) {
      std::uint64_t tot = 0;
      for (int i = 0; i < n; ++i)
        if (subs[choice[i]] >> a & 1) tot += std::uint64_t{1} << (i + 1);
      if (tot < g[a]) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
    int i = 0;
    while (i < n && choice[i] == static_cast<int>(subs.size()) - 1)
      choice[i++] = 0;
    if (i == n) return false;
    ++choice[i];
  }
}

/// The greedy feasibility procedures inside chain_reaches must agree with
/// brute-force assignment for every realizable biased gap vector (per-axis
/// values are 0 for overlapping projections, odd otherwise: block anchors
/// and family anchors are both even in units of h).
template <int D>
void chain_reaches_check(int emax) {
  std::vector<std::uint64_t> vals{0};
  for (int e = 2; e <= emax; ++e) {
    vals.clear();
    vals.push_back(0);
    for (std::uint64_t g = 1; g <= (std::uint64_t{1} << e) + 3; g += 2)
      vals.push_back(g);
    std::array<std::size_t, D> idx{};
    while (true) {
      std::array<std::uint64_t, D> g{};
      bool allz = true, sorted = true;
      for (int a = 0; a < D; ++a) {
        g[a] = vals[idx[a]];
        if (g[a]) allz = false;
        if (a > 0 && idx[a] < idx[a - 1]) sorted = false;
      }
      if (sorted && !allz) {
        for (int k = 1; k <= D; ++k) {
          std::string gs;
          for (int a = 0; a < D; ++a)
            gs += (a ? "," : "") + std::to_string(g[a]);
          ASSERT_EQ(chain_reaches<D>(g, e, k), chain_reaches_brute<D>(g, e, k))
              << "D=" << D << " e=" << e << " k=" << k << " g=(" << gs << ")";
        }
      }
      int a = 0;
      while (a < D && idx[a] == vals.size() - 1) idx[a++] = 0;
      if (a == D) break;
      ++idx[a];
    }
  }
}

TEST(ChainReaches, MatchesBruteForceAssignment1D) { chain_reaches_check<1>(8); }
TEST(ChainReaches, MatchesBruteForceAssignment2D) { chain_reaches_check<2>(6); }
TEST(ChainReaches, MatchesBruteForceAssignment3D) { chain_reaches_check<3>(5); }

/// Regression: gap vectors on the Sierpinski-like fractal corners of the 3D
/// profiles, where the Table II Carry3 combination is one size exponent too
/// fine (it under-reports the admissible block size once the level
/// difference reaches 3).  Each case realizes a biased gap vector g at
/// block size 2^e and checks finest_exp_in against the ripple oracle; the
/// old λ condition returned want-1 for all of them.
TEST(Lambda, ThreeDFractalCornerRegression) {
  constexpr int D = 3;
  struct Case {
    int k;
    std::array<int, D> g;  // sorted biased gaps (all odd: separated axes)
    int e;                 // expected admissible block size exponent
  };
  const Case cases[] = {
      {1, {1, 1, 1}, 3},  {1, {1, 1, 3}, 3},  {1, {3, 3, 5}, 4},
      {1, {1, 5, 5}, 4},  {1, {3, 3, 3}, 4},  {2, {3, 3, 5}, 3},
      {2, {7, 7, 9}, 4},  {2, {7, 9, 9}, 4},  {2, {5, 11, 11}, 4},
      {2, {3, 11, 13}, 4},
  };
  const int L = 12;  // o's level: deep enough for level differences >= 3
  const scoord_t h = coord_t{1} << (max_level<D> - L);
  for (const auto& c : cases) {
    // Block anchored at A (a multiple of 2^e), o's family below it at a raw
    // distance of g-1 cells per axis (biased gap g), o at the odd child.
    Octant<D> blk, o;
    blk.level = static_cast<level_t>(L - c.e);
    o.level = L;
    for (int i = 0; i < D; ++i) {
      const int A = 1024;
      blk.x[i] = static_cast<coord_t>(A * h);
      o.x[i] = static_cast<coord_t>((A - 2 - (c.g[i] - 1) + 1) * h);
    }
    const auto t = tk_of(o, c.k, root_octant<D>());
    const int want = oracle_finest_exp(t, blk);
    ASSERT_EQ(want, size_exp(o) + c.e)
        << "oracle disagrees with tabulated case k=" << c.k;
    EXPECT_EQ(finest_exp_in(o, blk, c.k), want) << "k=" << c.k;
    EXPECT_TRUE(balanced_pair(o, blk, c.k)) << "k=" << c.k;
  }
}

TEST(ClosestBalanced, IsALeafOfTk) {
  constexpr int D = 2;
  const auto root = root_octant<D>();
  const auto octs = all_octants<D>(2, 4);
  for (int k = 1; k <= D; ++k) {
    for (std::size_t i = 0; i < octs.size(); i += 7) {
      const auto& o = octs[i];
      const auto t = tk_of(o, k, root);
      for (std::size_t j = 0; j < octs.size(); j += 5) {
        const auto& r = octs[j];
        if (r.level > o.level || overlaps(r, o)) continue;
        const auto a = closest_balanced(o, r, k);
        EXPECT_TRUE(contains(r, a));
        if (size_exp(a) < size_exp(r)) {
          // a must be an actual leaf of Tk(o).
          EXPECT_NE(binary_find(t, a), npos)
              << "a=" << to_string(a) << " o=" << to_string(o)
              << " r=" << to_string(r) << " k=" << k;
        }
      }
    }
  }
}

TEST(Lambda, SiblingIsBalancedAtSameSize) {
  // ō in the same family as o: size(a) == size(o) (the clamped position is
  // o's sibling, which is a leaf of Tk(o) at o's own size).
  const auto root = root_octant<2>();
  auto o = child(child(child(root, 0), 0), 0);
  const auto r = sibling(o, 3);
  EXPECT_EQ(finest_exp_in(o, r, 2), size_exp(o));
  EXPECT_TRUE(balanced_pair(o, r, 2));
}

TEST(Lambda, OneDLogarithmicGrowth) {
  // In 1D, the leaf of T(o) at anchor distance p from the family anchor has
  // size exponent floor(log2 p): doubling distance doubles size.
  Oct1 o{{0}, 10};
  const coord_t h = side_len(o);
  for (int j = 1; j < 8; ++j) {
    Oct1 r{{(coord_t{1} << j) * h}, 10};
    const int e = finest_exp_in(o, r, 1);
    EXPECT_EQ(e, size_exp(o) + j) << "j=" << j;
  }
}

/// The family rule behind the balance response loop (DESIGN.md §2.18): for
/// a disjoint pair with r.level <= o.level - 2, balanced_pair(o, r) and
/// balance_seeds(o, r) depend on o only through parent(o).  Checked for
/// every family and every such r of a small domain (deeper than the λ sweep
/// above), every k.
template <int D>
void family_rule_check(int lmax) {
  const auto parents = all_octants<D>(0, lmax - 1);
  const auto rs = all_octants<D>(1, lmax);
  std::uint64_t pairs = 0, unbalanced = 0;
  for (int k = 1; k <= D; ++k) {
    for (const auto& p : parents) {
      const Octant<D> o0 = child(p, 0);
      for (const auto& r : rs) {
        if (r.level > o0.level - 2 || overlaps(r, p)) continue;
        const bool bal = balanced_pair(o0, r, k);
        const auto seeds = balance_seeds(o0, r, k);
        for (int c = 1; c < num_children<D>; ++c) {
          const Octant<D> o = child(p, c);
          ASSERT_EQ(balanced_pair(o, r, k), bal)
              << "D=" << D << " k=" << k << " o=" << to_string(o)
              << " r=" << to_string(r);
          ASSERT_EQ(balance_seeds(o, r, k), seeds)
              << "D=" << D << " k=" << k << " o=" << to_string(o)
              << " r=" << to_string(r);
        }
        ++pairs;
        if (!bal) ++unbalanced;
      }
    }
  }
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(unbalanced, 0u);  // the rule is exercised where seeds exist
}

TEST(FamilyRule, OneD) { family_rule_check<1>(10); }
TEST(FamilyRule, TwoD) { family_rule_check<2>(6); }
TEST(FamilyRule, ThreeD) { family_rule_check<3>(4); }

/// The response loop applies the rule to leaves mapped from a neighbor
/// tree's frame into the query's frame.  Through a rotated gluing (tree 0's
/// +x face meets tree 1's -y face), the image of a sibling family must
/// still be one family, and the rule must hold for the exterior images.
TEST(FamilyRule, RotatedGluingThroughFrameTransform) {
  constexpr int D = 2;
  std::vector<std::array<FaceGlue, 4>> faces(2);
  faces[0][1] = FaceGlue{1, 2, 0};
  faces[1][2] = FaceGlue{0, 1, 0};
  const auto conn = Connectivity<D>::general(2, std::move(faces));
  ASSERT_TRUE(conn.validate());
  const int lmax = 7;
  const auto all = all_octants<D>(1, lmax - 1);
  std::uint64_t pairs = 0, unbalanced = 0, rotated = 0;
  for (int k = 1; k <= D; ++k) {
    for (const auto& q : all) {
      if (q.level > lmax - 3) continue;
      for (const auto& off : full_offsets<D>()) {
        const auto nb = conn.neighbor(0, q, off);
        if (!nb || nb->tree != 1) continue;
        if (nb->xform.perm[0] != 0) ++rotated;
        for (const auto& p : all) {
          if (p.level < q.level + 1 || !contains(nb->oct, p)) continue;
          const Octant<D> o0 = nb->xform.apply(child(p, 0));
          const bool bal = balanced_pair(o0, q, k);
          const auto seeds = balance_seeds(o0, q, k);
          for (int c = 1; c < num_children<D>; ++c) {
            const Octant<D> o = nb->xform.apply(child(p, c));
            ASSERT_EQ(parent(o), parent(o0)) << "image is not one family";
            ASSERT_EQ(balanced_pair(o, q, k), bal)
                << "k=" << k << " o=" << to_string(o)
                << " q=" << to_string(q);
            ASSERT_EQ(balance_seeds(o, q, k), seeds)
                << "k=" << k << " o=" << to_string(o)
                << " q=" << to_string(q);
          }
          ++pairs;
          if (!bal) ++unbalanced;
        }
      }
    }
  }
  EXPECT_GT(rotated, 0u);
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(unbalanced, 0u);
}

TEST(Lambda, FaceBalanceGrowsFasterDiagonally) {
  // For k=1 in 2D, λ = δx + δy: diagonal octants may be one level coarser
  // than axis neighbors at the same Chebyshev distance (Figure 3a vs 3b).
  const coord_t h = side_len(Oct2{{0, 0}, 10});
  Oct2 o{{4 * h, 4 * h}, 10};  // family [4h,6h)^2
  Oct2 axis{{8 * h, 4 * h}, 10};
  Oct2 diag{{8 * h, 8 * h}, 10};
  const int e_axis_k1 = finest_exp_in(o, axis, 1);
  const int e_diag_k1 = finest_exp_in(o, diag, 1);
  const int e_diag_k2 = finest_exp_in(o, diag, 2);
  // Summing the axis distances (k=1) admits the 8h-block diagonally where
  // the Chebyshev rule (k=2) does not, and where the face direction is
  // still blocked by the overlapping projection.
  EXPECT_GT(e_diag_k1, e_diag_k2);
  EXPECT_GT(e_diag_k1, e_axis_k1);
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

// Opt-in deep stress version of the exhaustive sweep (runs ~1 minute):
//   ./test_lambda --gtest_also_run_disabled_tests
//                 --gtest_filter='*DISABLED_TwoDDeep*'
TEST(LambdaExhaustive, DISABLED_TwoDDeep) { exhaustive_check<2>(5); }

// Level-4 3D sweep: covers the level-difference-3 region where the Table II
// Carry3 profile first diverges from the exact chain model.
TEST(LambdaExhaustive, DISABLED_ThreeDDeep) { exhaustive_check<3>(4); }

}  // namespace
}  // namespace octbal
