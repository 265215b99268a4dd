#pragma once
/// \file neighborhood.hpp
/// \brief Balance conditions and coarse neighborhoods N(o) (Figure 5).
///
/// A k-balance condition (1 <= k <= d) requires a 2:1 size relation between
/// octants sharing a boundary object of codimension <= k: k = 1 is balance
/// across faces only; k = 2 adds corners in 2D and edges in 3D; k = 3 (3D)
/// adds corners.  The coarse neighborhood N(o) is the set of parent-sized
/// octants adjacent to parent(o) across those boundary objects, clipped to
/// the enclosing domain; in the old subtree balance each octant inserts
/// family(o) and N(o), in the new one only the 0-siblings of N(o).
///
/// All functions take a \p domain octant: the (sub)tree root being balanced.
/// Neighbors outside the domain are dropped, which implements the paper's
/// "treat the least common ancestor of the subtree as the root".  Functions
/// taking a balance condition k throw std::invalid_argument outside
/// [1, D], except balance_offsets, the unchecked table their entry points
/// index.

#include <stdexcept>
#include <string>
#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// Throws std::invalid_argument naming \p who, \p k and \p dim.
[[noreturn]] void throw_balance_k_out_of_range(int k, int dim,
                                               const char* who);

/// Throws std::invalid_argument, naming \p who, unless 1 <= k <= D.  Entry
/// points that index balance_offsets with a caller's k check it first: the
/// table has one entry per condition and no bounds check of its own.  One
/// unsigned compare (k <= 0 wraps past D), so per-octant kernels can
/// afford it.
template <int D>
void require_balance_k(int k, const char* who) {
  if (static_cast<unsigned>(k) - 1u >= static_cast<unsigned>(D)) {
    throw_balance_k_out_of_range(k, D, who);
  }
}

/// The offset vectors in {-1,0,1}^D \ {0} selected by balance condition k:
/// those with between 1 and k nonzero components.  Computed once per (D, k).
template <int D>
const std::vector<std::array<int, D>>& balance_offsets(int k);

/// All 3^D - 1 nonzero offset vectors (the insulation-layer stencil).
template <int D>
const std::vector<std::array<int, D>>& full_offsets();

/// Neighbor of \p o at its own size offset by \p off side lengths, if it
/// lies inside \p domain; returns false otherwise.
template <int D>
bool neighbor_in(const Octant<D>& o, const std::array<int, D>& off,
                 const Octant<D>& domain, Octant<D>* out);

/// The coarse neighborhood N(o): parent-sized neighbors of parent(o) across
/// the k-balance boundary objects, clipped to \p domain.  Appends to \p out.
template <int D>
void coarse_neighborhood(const Octant<D>& o, int k, const Octant<D>& domain,
                         std::vector<Octant<D>>& out);

/// Same-sized neighbors of \p o across the k-balance boundary objects,
/// clipped to \p domain.  Appends to \p out.
template <int D>
void same_size_neighborhood(const Octant<D>& o, int k, const Octant<D>& domain,
                            std::vector<Octant<D>>& out);

}  // namespace octbal
