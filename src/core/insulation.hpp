#pragma once
/// \file insulation.hpp
/// \brief Insulation layers I(r) (Section II-B, Figure 4).
///
/// The insulation layer of an octant r is the 3^d envelope of r-sized
/// octants around (and including) r.  Two octants o, r can only be
/// unbalanced if o lies in I(r) or r lies in I(o); comparing insulation
/// layers with partition boundaries determines which processes must
/// exchange information during 2:1 balance.

#include <cstdint>

#include "core/octant.hpp"

namespace octbal {

/// True iff \p o lies inside the insulation layer of \p r (the closed 3x
/// box around r), coordinates taken within a single tree.
template <int D>
constexpr bool in_insulation(const Octant<D>& o, const Octant<D>& r) {
  const scoord_t hr = side_len(r), ho = side_len(o);
  for (int i = 0; i < D; ++i) {
    const scoord_t lo = static_cast<scoord_t>(r.x[i]) - hr;
    const scoord_t hi = static_cast<scoord_t>(r.x[i]) + 2 * hr;
    const scoord_t a = static_cast<scoord_t>(o.x[i]);
    if (a < lo || a + ho > hi) return false;
  }
  return true;
}

/// The number of r-sized octants of I(r), r included, that lie inside the
/// root.  The layer is the product of D per-axis ranges {-1, 0, 1}, and
/// the same-size neighbor at offset -1 (+1) fits iff x >= h (x + 2h <= R),
/// so the count is the product over axes of 1 + (x >= h) + (x + 2h <= R).
template <int D>
constexpr std::uint64_t insulation_size(const Octant<D>& r) {
  const scoord_t h = side_len(r);
  std::uint64_t n = 1;
  for (int i = 0; i < D; ++i) {
    const scoord_t x = static_cast<scoord_t>(r.x[i]);
    n *= 1 + static_cast<std::uint64_t>(x >= h) +
         static_cast<std::uint64_t>(x + 2 * h <= scoord_t{root_len<D>});
  }
  return n;
}

}  // namespace octbal
