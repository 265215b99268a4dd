#pragma once
/// \file search.hpp
/// \brief Top-down search over linear octrees (the p4est_search pattern).
///
/// Many mesh queries — point location, region intersection, building
/// interpolation stencils — are answered by recursing down the implicit
/// tree over a *linear* leaf array: at each virtual ancestor the callback
/// decides whether to descend, and leaves are reported when reached.  The
/// recursion never materializes interior nodes and visits each array
/// element at most once per matching query, so a batch of Q point queries
/// costs O(Q log N) rather than O(Q N).
///
/// The recursion runs over packed keys (core/key.hpp): the child split is
/// a shift-or, the range partition compares normalized keys, and point
/// containment is a prefix test on the precomputed finest-cell key.
/// search_tree and locate_points pack the leaf array once and call the key
/// kernels; the per-query find_containing_leaf keeps its Octant<D> binary
/// search.

#include <functional>
#include <vector>

#include "core/key.hpp"
#include "core/linear.hpp"
#include "core/octant.hpp"

namespace octbal {

/// Visit the implicit tree over the sorted linear array \p leaves (all
/// descendants of \p root).  \p pre is called for every virtual ancestor
/// octant together with the half-open index range of leaves it contains;
/// returning false prunes the subtree.  \p leaf is called for each leaf
/// reached.
template <int D>
void search_tree(
    const std::vector<Octant<D>>& leaves, const Octant<D>& root,
    const std::function<bool(const Octant<D>&, std::size_t, std::size_t)>& pre,
    const std::function<void(const Octant<D>&, std::size_t)>& leaf);

/// Key-native search_tree: the same traversal with packed-key callbacks.
template <int D>
void search_tree_keys(
    KeySpan leaves, okey_t root,
    const std::function<bool(okey_t, std::size_t, std::size_t)>& pre,
    const std::function<void(okey_t, std::size_t)>& leaf);

/// Index of the leaf containing the finest-level cell anchored at \p point
/// coordinates (each in [0, root_len)), or npos if the array has a gap
/// there.  O(log N).
template <int D>
std::size_t find_containing_leaf(const std::vector<Octant<D>>& leaves,
                                 const std::array<coord_t, D>& point);

/// Batch point location via one shared top-down pass: for each query point
/// the index of its containing leaf (or npos).  Faster than repeated
/// find_containing_leaf when the points are many and spatially coherent.
template <int D>
std::vector<std::size_t> locate_points(
    const std::vector<Octant<D>>& leaves, const Octant<D>& root,
    const std::vector<std::array<coord_t, D>>& points);

/// Key-native batch point location (the body of locate_points).
template <int D>
std::vector<std::size_t> locate_points_keys(
    KeySpan leaves, okey_t root,
    const std::vector<std::array<coord_t, D>>& points);

}  // namespace octbal
