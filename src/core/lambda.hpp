#pragma once
/// \file lambda.hpp
/// \brief O(1) balance decisions between remote octants (Section IV,
/// Table II of the paper).
///
/// Given a fine octant o and a remote coarser octant r, the paper shows the
/// finest leaf a of the coarsest balanced octree Tk(o) that overlaps r can
/// be computed analytically from coordinate distances, without constructing
/// any intermediate octants: take the closest same-size-as-o descendant
/// position ō of r, and find the coarsest dyadic ancestor block of ō that
/// keeps a consistent distance/size relation with o's family.
///
/// Concretely (all lengths in units of o's side h = 2^l): whether the
/// dyadic block of size 2^e containing ō can be a leaf of Tk(o) is decided
/// by the doubling-chain model of the ripple.  The 2:1 constraint
/// propagates from o through a chain of octants of sizes 2^1, ..., 2^{e-1},
/// each a k-neighbor of the previous, so step i advances the front by at
/// most 2^i in each of at most k axes simultaneously.  The block is forced
/// finer than 2^e — i.e. is NOT admissible as a leaf — iff the steps can be
/// assigned to axes, each step serving at most k of them, such that every
/// axis receives total advance >= g_i, where g is the vector of per-axis
/// biased gaps between the block and the family cube parent(o) (0 when the
/// projections overlap, distance+1 when they touch or are separated).
/// This is chain_reaches() below; the decision is exact for every (D, k)
/// and degenerates to closed forms at the extremes:
///     k = d:          admissible iff max_i g_i  > 2^e - 2  (cubic profile)
///     d = 2, k = 1:   admissible iff g_x + g_y  > 2^e - 4  (diamond)
/// which match the λ-profiles of Table II of the paper.  For d = 3 with
/// k in {1, 2} the Carry3-based λ of Table II is a conservative lower
/// bound: it is exact except on the Sierpinski-like fractal corner regions
/// of the profile (Figure 11), where it is one size exponent too fine once
/// the level difference reaches 3.  The chain model has no such defect —
/// it was validated against the ripple oracle on 17k+ exhaustive
/// (gap-vector, size) admissibility cases for d = 3, e <= 6, and the
/// greedy decision procedures below were verified equivalent to brute
/// force over all realizable gap vectors.  size(a) is the largest
/// admissible e.  Admissibility is monotone in e (a larger block is closer
/// to the family on every axis and meets a longer chain), so two facts
/// follow:
///   - balanced_pair(o, r) is one chain_reaches call, at the block r itself
///     (e = size_exp(r) - size_exp(o));
///   - finest_exp_in bisects over e, at most ceil(log2(max_level + 1))
///     calls, independent of the distance between o and r.
///
/// Everything in this header is validated exhaustively against the ripple
/// oracle in tests/test_lambda.cpp: every octant pair of a small domain,
/// every dimension, every balance condition.

#include <bit>
#include <cstdint>

#include "core/octant.hpp"

namespace octbal {

/// Carry3(α,β,γ): binary addition of three numbers where a carry into the
/// next bit happens only when at least three ones meet in a bit (Eq. 1).
/// Only the most significant bit matters, hence the bitwise-OR form.
constexpr std::uint64_t carry3(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) {
  const std::uint64_t s = a + b + c - (a | b | c);
  std::uint64_t m = a > b ? a : b;
  if (c > m) m = c;
  return s > m ? s : m;
}

/// λk(g) per Table II for dimension D and balance condition k, combining
/// the per-dimension distances \p g.  Reference profile only: exact for
/// D <= 2 and for k = D, but a conservative (too-fine) bound on the 3D
/// fractal corners for k in {1, 2}; the balance decisions below use the
/// exact chain_reaches() instead.
template <int D>
constexpr std::uint64_t lambda(const std::array<std::uint64_t, D>& g, int k) {
  if constexpr (D == 1) {
    (void)k;
    return g[0];
  } else if constexpr (D == 2) {
    if (k >= 2) return g[0] > g[1] ? g[0] : g[1];
    return g[0] + g[1];
  } else {
    if (k >= 3) {
      const std::uint64_t m = g[0] > g[1] ? g[0] : g[1];
      return g[2] > m ? g[2] : m;
    }
    if (k == 2) return carry3(g[0], g[1], g[2]);
    return carry3(g[1] + g[2], g[2] + g[0], g[0] + g[1]);
  }
}

/// Can the 2:1 ripple of Tk(o) force a dyadic block of size 2^e (in units
/// of o's side) at biased per-axis gaps \p g from o's family cube to be
/// refined?  A forcing chain consists of octants of sizes 2^1 .. 2^{e-1},
/// each a k-neighbor of its predecessor, so step i advances at most k axes
/// by at most 2^i each.  The block is reached iff the steps can be assigned
/// so every axis a with g[a] > 0 receives total advance >= g[a]; the block
/// is an admissible leaf of Tk(o) exactly when no such assignment exists.
///
/// The subset-assignment feasibility test is solved exactly by greedy
/// procedures (powers of two are super-increasing; both greedies verified
/// equivalent to brute-force assignment over all realizable gap vectors):
///  - k >= D: every step serves all axes, so only max g matters.
///  - k == 1: each step serves one axis; serve the largest unmet gap first.
///  - 1 < k < D: each step must skip >= 1 axis; equivalently pack every
///    power into a per-axis "slack bin" of capacity (2^e - 2) - g[a],
///    largest power into the largest remaining bin.
template <int D>
constexpr bool chain_reaches(const std::array<std::uint64_t, D>& g, int e,
                             int k) {
  std::uint64_t mx = 0;
  for (int i = 0; i < D; ++i) mx = g[i] > mx ? g[i] : mx;
  if (mx == 0) return true;  // block overlaps the family: always forced
  const std::uint64_t total = (std::uint64_t{1} << e) - 2;  // sum 2^1..2^{e-1}
  if (k >= D) return mx <= total;
  if (k == 1) {
    std::array<std::uint64_t, D> rem = g;
    for (int i = e - 1; i >= 1; --i) {
      int a = 0;
      for (int j = 1; j < D; ++j)
        if (rem[j] > rem[a]) a = j;
      if (rem[a] == 0) return true;
      const std::uint64_t p = std::uint64_t{1} << i;
      rem[a] = rem[a] > p ? rem[a] - p : 0;
    }
    for (int j = 0; j < D; ++j)
      if (rem[j] > 0) return false;
    return true;
  }
  std::array<std::uint64_t, D> slack{};
  for (int i = 0; i < D; ++i) {
    if (g[i] > total) return false;  // this axis can never be covered
    slack[i] = total - g[i];
  }
  for (int i = e - 1; i >= 1; --i) {
    int a = 0;
    for (int j = 1; j < D; ++j)
      if (slack[j] > slack[a]) a = j;
    const std::uint64_t p = std::uint64_t{1} << i;
    if (slack[a] < p) return false;
    slack[a] -= p;
  }
  return true;
}

/// The decision frame of a pair (o, r): ō — the closest descendant
/// position of r with o's size, o's anchor clamped into r's anchor grid —
/// and parent(o), both in units of o's side h = 2^l.  In these units the
/// dyadic block of size 2^e containing ō is ō with its low e bits cleared,
/// so every gap of the decision is a mask and a subtraction — no division
/// by h.
template <int D>
struct LambdaFrame {
  int l = 0;                        ///< size_exp(o)
  std::array<scoord_t, D> obar{};  ///< ō's anchor / h
  std::array<scoord_t, D> fam{};   ///< parent(o)'s anchor / h (even)

  /// Anchor of the 2^e block containing ō on axis \p i, in units of h.
  constexpr scoord_t block_lo(int i, int e) const {
    return obar[i] & ~((scoord_t{1} << e) - 1);
  }

  /// Per-axis biased gaps between the 2^e block containing ō and the
  /// family cube [fam, fam + 2): 0 when the projections overlap with
  /// positive measure, distance + 1 when they touch or are separated (the
  /// +1 makes corner/edge contacts count as one diagonal step).
  constexpr std::array<std::uint64_t, D> gaps(int e) const {
    std::array<std::uint64_t, D> g{};
    for (int i = 0; i < D; ++i) {
      const scoord_t blo = block_lo(i, e);
      const scoord_t bhi = blo + (scoord_t{1} << e);
      const scoord_t flo = fam[i], fhi = flo + 2;
      if (blo >= fhi) {
        g[i] = static_cast<std::uint64_t>(blo - fhi) + 1;
      } else if (flo >= bhi) {
        g[i] = static_cast<std::uint64_t>(flo - bhi) + 1;
      }
    }
    return g;
  }

  /// Is the 2^e block containing ō forced finer by Tk(o)?  Requires e >= 1.
  constexpr bool forced(int e, int k) const {
    return chain_reaches<D>(gaps(e), e, k);
  }

  /// ō is a sibling of o (same family cube).
  constexpr bool sibling() const {
    for (int i = 0; i < D; ++i) {
      if ((obar[i] & ~scoord_t{1}) != fam[i]) return false;
    }
    return true;
  }

  /// The largest e in [lo, hi) with the 2^e block admissible, given that
  /// the 2^lo block is admissible (or lo == 0) and the 2^hi block is
  /// forced (or hi is one past the largest exponent).  Bisection over the
  /// monotone admissibility: forced(e) implies forced(e + 1).
  constexpr int last_admissible(int lo, int hi, int k) const {
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      if (forced(mid, k)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return lo;
  }

  /// The 2^e block containing ō, as an octant.
  constexpr Octant<D> block(int e) const {
    Octant<D> a;
    a.level = static_cast<level_t>(max_level<D> - l - e);
    for (int i = 0; i < D; ++i) {
      a.x[i] = static_cast<coord_t>(block_lo(i, e) * (scoord_t{1} << l));
    }
    return a;
  }
};

/// Build the decision frame of (o, r).  Requires size(r) >= size(o) and
/// o.level > 0.
template <int D>
constexpr LambdaFrame<D> lambda_frame(const Octant<D>& o, const Octant<D>& r) {
  assert(r.level <= o.level && o.level > 0);
  LambdaFrame<D> f;
  f.l = size_exp(o);
  const scoord_t span = (scoord_t{1} << (o.level - r.level)) - 1;
  for (int i = 0; i < D; ++i) {
    const scoord_t v = static_cast<scoord_t>(o.x[i]) >> f.l;
    const scoord_t rlo = static_cast<scoord_t>(r.x[i]) >> f.l;
    f.obar[i] = v < rlo ? rlo : (v > rlo + span ? rlo + span : v);
    f.fam[i] = v & ~scoord_t{1};
  }
  return f;
}

/// Size exponent (log2 of side length) of the finest leaf of Tk(o) that
/// overlaps octant \p r — equivalently, of the coarsest descendant of r at
/// the position closest to o that is balanced with o (the paper's a).
/// Requires size(r) >= size(o); if r contains o the answer is size(o).
/// Note: the finest leaf overlapping r may be *coarser* than r itself (an
/// ancestor of r), so the search is not capped at r's size.
template <int D>
constexpr int finest_exp_in(const Octant<D>& o, const Octant<D>& r, int k) {
  const int l = size_exp(o);
  if (contains(r, o)) return l;  // o itself is the finest leaf
  const LambdaFrame<D> f = lambda_frame(o, r);
  if (f.sibling()) return l;  // ō is a sibling of o
  // The 2^0 block is ō itself, a leaf candidate; the largest block is the
  // root-sized one at e = max_level - l.
  return l + f.last_admissible(0, max_level<D> - l + 1, k);
}

/// O(1) predicate: are octants o and r balanced, i.e. can both be leaves of
/// one k-balanced octree?  (The paper's key decision procedure.)  Requires
/// disjoint octants with size(r) >= size(o).
///
/// One chain_reaches call: the 2^Δ block containing ō, Δ = size_exp(r) -
/// size_exp(o), is r itself, and by monotonicity the finest leaf of Tk(o)
/// in r is at least as coarse as r iff that block is admissible.  For a
/// disjoint pair with Δ >= 1, ō is never a sibling of o (r would contain
/// parent(o) and hence o).
template <int D>
constexpr bool balanced_pair(const Octant<D>& o, const Octant<D>& r, int k) {
  assert(!overlaps(o, r));
  const int dl = o.level - r.level;
  if (dl == 0) return true;
  return !lambda_frame(o, r).forced(dl, k);
}

/// The octant a itself: the coarsest descendant of \p r at the closest
/// position to \p o that is balanced with \p o — the 2^e block containing
/// ō for e = min(finest_exp_in(o, r, k), size_exp(r)).  One chain_reaches
/// call at r's own size decides whether the cap binds (then a == r, which
/// happens iff the pair is balanced); only an unbalanced pair bisects
/// below it.  Requires size(r) >= size(o).
template <int D>
constexpr Octant<D> closest_balanced(const Octant<D>& o, const Octant<D>& r,
                                     int k) {
  if (contains(r, o)) return o;  // o itself is the finest leaf
  const int dl = o.level - r.level;
  if (dl == 0) return r;
  const LambdaFrame<D> f = lambda_frame(o, r);
  if (f.sibling()) return f.block(0);
  if (!f.forced(dl, k)) return r;
  return f.block(f.last_admissible(0, dl, k));
}

}  // namespace octbal
