#pragma once
/// \file search.hpp
/// \brief Point location in a linear octree: the leaf that contains the
/// finest-level cell at a point, by one binary search over the sorted
/// leaf array.

#include <array>
#include <vector>

#include "core/linear.hpp"
#include "core/octant.hpp"

namespace octbal {

/// Index of the leaf containing the finest-level cell anchored at \p point
/// coordinates (each in [0, root_len)), or npos if the array has a gap
/// there.  O(log N).
template <int D>
std::size_t find_containing_leaf(const std::vector<Octant<D>>& leaves,
                                 const std::array<coord_t, D>& point);

}  // namespace octbal
