#pragma once
/// \file reduce.hpp
/// \brief The paper's Reduce algorithm (Figure 8, Section III-B).
///
/// Reduce removes *precluded* octants from a sorted array: octants whose
/// presence is implied, via the preclusion partial order, by a finer octant
/// elsewhere in the array.  Every kept octant is stored as its 0-sibling
/// (the family representative).  For a complete linear octree S the result R
/// satisfies |R| <= |S| / 2^D, and complete(R) == S: Reduce is a lossless
/// compression of complete linear octrees.
///
/// The single-pass loop runs over packed keys with preclusion as
/// shift-prefix tests; reduce() packs, reduces and unpacks.

#include <vector>

#include "core/key.hpp"
#include "core/linear.hpp"  // npos
#include "core/octant.hpp"

namespace octbal {

/// Reduce a sorted (linear) octant array to its preclusion-minimal,
/// 0-sibling-normalized representation (Figure 8 of the paper).  Throws
/// std::invalid_argument when an element is not an extended-valid octant.
template <int D>
std::vector<Octant<D>> reduce(const std::vector<Octant<D>>& s);

/// Key-native Reduce: identical loop, preclusion via prefix tests on the
/// parent keys (one shift each).
template <int D>
std::vector<okey_t> reduce_keys(KeySpan s);

/// In the reduced sorted array \p r, find an element t with t <= q in the
/// preclusion order (t's parent contains q's parent), the "single equivalent
/// binary search" of Section III-B.  Returns its index or npos.  Because r
/// is reduced there is at most one such element.
template <int D>
std::size_t find_precluding_le(KeySpan r, okey_t q);

}  // namespace octbal
