#include "core/search.hpp"

#include <algorithm>

namespace octbal {

template <int D>
std::size_t find_containing_leaf(const std::vector<Octant<D>>& leaves,
                                 const std::array<coord_t, D>& point) {
  Octant<D> cell;
  cell.level = max_level<D>;
  cell.x = point;
  // The containing leaf is the last element with key <= key(cell) that is
  // an ancestor-or-equal of the finest cell at the point.
  const auto it = std::upper_bound(leaves.begin(), leaves.end(), cell);
  if (it == leaves.begin()) return npos;
  const std::size_t idx = static_cast<std::size_t>(it - leaves.begin()) - 1;
  return contains(leaves[idx], cell) ? idx : npos;
}

#define OCTBAL_INSTANTIATE(D)                                                \
  template std::size_t find_containing_leaf<D>(                             \
      const std::vector<Octant<D>>&, const std::array<coord_t, D>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
