#pragma once
/// \file balance_check.hpp
/// \brief Definition-level balance checks used as test oracles and
/// debug-mode postconditions.

#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// Codimension of the boundary object shared by the closed cubes of a and b:
/// 1 for a face, 2 for an edge (a corner in 2D), 3 for a corner in 3D.
/// Returns -1 if the cubes are separated by a gap in some dimension and
/// 0 if their interiors overlap (which cannot happen between leaves).
template <int D>
int adjacency_codim(const Octant<D>& a, const Octant<D>& b);

/// True iff every pair of leaves of the complete linear octree \p t inside
/// \p domain that shares a boundary object of codimension <= k differs by at
/// most one level.  O(n log n)-ish via neighborhood searches.  Throws
/// std::invalid_argument (as does find_violation) when k lies outside
/// [1, D].
template <int D>
bool is_balanced(const std::vector<Octant<D>>& t, int k,
                 const Octant<D>& domain);

/// If unbalanced, fills \p a and \p b with a violating pair (for messages).
template <int D>
bool find_violation(const std::vector<Octant<D>>& t, int k,
                    const Octant<D>& domain, Octant<D>* a, Octant<D>* b);

}  // namespace octbal
