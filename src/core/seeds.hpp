#pragma once
/// \file seeds.hpp
/// \brief Seed octants (Section IV): an O(1)-size stand-in for a response
/// octant from which a remote process can reconstruct the overlap of
/// Tk(o) with its own query octant r.
///
/// Instead of sending a distant fine octant o (forcing the receiver to
/// construct auxiliary octants bridging the gap), the responder computes a
/// small set of seed octants inside r — at most 3^(d-1) of them — such that
/// balancing the seeds *within r as root* reproduces S = Tk(o) ∩ r exactly.
/// The receiver's work is then proportional to |S|, independent of the
/// distance between o and r.

#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// Compute seed octants for response octant \p o and query octant \p r
/// under balance condition \p k.  Returns an empty vector when o cannot
/// cause r to split (r is already balanced with o).  Otherwise the returned
/// octants are descendants of r, and
///   balance_subtree_new(seeds, k, r) == Tk(o) ∩ r.
/// Throws std::invalid_argument when o and r overlap or k is outside
/// [1, D].
template <int D>
std::vector<Octant<D>> balance_seeds(const Octant<D>& o, const Octant<D>& r,
                                     int k);

}  // namespace octbal
