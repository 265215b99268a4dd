#pragma once
/// \file ripple.hpp
/// \brief Reference ("ripple") balance construction used as the ground-truth
/// oracle for every fast algorithm in this library.
///
/// The ripple algorithm splits any leaf that violates 2:1 against a finer
/// adjacent leaf and repeats until a fixed point: this converges to the
/// unique coarsest k-balanced refinement of the input, directly from the
/// definitions in Section II-B.  It is deliberately simple and slow.

#include <vector>

#include "core/octant.hpp"

namespace octbal {

// Every function here throws std::invalid_argument when k lies outside
// [1, D].

/// The coarsest complete k-balanced linear octree of \p domain that refines
/// complete(linearize(S), domain).  Input octants remain leaves unless they
/// themselves violate balance against a finer input.
template <int D>
std::vector<Octant<D>> ripple_balance(std::vector<Octant<D>> s, int k,
                                      const Octant<D>& domain);

/// Tk(o): the coarsest k-balanced octree of \p domain containing \p o as a
/// leaf (Figure 3).
template <int D>
std::vector<Octant<D>> tk_of(const Octant<D>& o, int k,
                             const Octant<D>& domain);

/// Oracle for "o and r are balanced": no leaf of Tk(o) overlapping \p r is
/// strictly finer than \p r.  Requires both in \p domain; throws
/// std::invalid_argument when o and r overlap.
template <int D>
bool balanced_pair_oracle(const Octant<D>& o, const Octant<D>& r, int k,
                          const Octant<D>& domain);

}  // namespace octbal
