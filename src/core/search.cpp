#include "core/search.hpp"

#include <algorithm>

namespace octbal {

namespace {

template <int D>
void search_rec_keys(
    KeySpan leaves, okey_t node, std::size_t lo, std::size_t hi,
    const std::function<bool(okey_t, std::size_t, std::size_t)>& pre,
    const std::function<void(okey_t, std::size_t)>& leaf) {
  if (lo >= hi) return;
  if (!pre(node, lo, hi)) return;
  if (hi - lo == 1 && leaves[lo] == node) {
    leaf(node, lo);
    return;
  }
  assert(key_level<D>(node) < max_level<D>);
  std::size_t begin = lo;
  for (int c = 0; c < num_children<D>; ++c) {
    const okey_t ch = key_child<D>(node, c);
    const morton_t end_key = key_interval_end<D>(ch);
    const auto it = std::partition_point(
        leaves.begin() + begin, leaves.begin() + hi,
        [&](okey_t k) { return key_interval_begin<D>(k) < end_key; });
    const auto next = static_cast<std::size_t>(it - leaves.begin());
    search_rec_keys<D>(leaves, ch, begin, next, pre, leaf);
    begin = next;
  }
}

/// Finest-level cell key at a point: what find_containing_leaf compares
/// against, packed.
template <int D>
okey_t point_cell_key(const std::array<coord_t, D>& point) {
  Octant<D> cell;
  cell.level = max_level<D>;
  cell.x = point;
  return key_of(cell);
}

}  // namespace

template <int D>
void search_tree(
    const std::vector<Octant<D>>& leaves, const Octant<D>& root,
    const std::function<bool(const Octant<D>&, std::size_t, std::size_t)>& pre,
    const std::function<void(const Octant<D>&, std::size_t)>& leaf) {
  assert(is_linear(leaves));
  // Convert the array once, traverse keys, and unpack per callback.
  const std::vector<okey_t> keys = octants_to_keys(leaves);
  search_tree_keys<D>(
      keys, key_of(root),
      [&](okey_t k, std::size_t lo, std::size_t hi) {
        return pre(key_oct<D>(k), lo, hi);
      },
      [&](okey_t k, std::size_t i) { leaf(key_oct<D>(k), i); });
}

template <int D>
void search_tree_keys(
    KeySpan leaves, okey_t root,
    const std::function<bool(okey_t, std::size_t, std::size_t)>& pre,
    const std::function<void(okey_t, std::size_t)>& leaf) {
  assert(is_linear_keys(leaves));
  search_rec_keys<D>(leaves, root, 0, leaves.size(), pre, leaf);
}

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

template <int D>
std::vector<std::size_t> locate_points(
    const std::vector<Octant<D>>& leaves, const Octant<D>& root,
    const std::vector<std::array<coord_t, D>>& points) {
  return locate_points_keys<D>(octants_to_keys(leaves), key_of(root), points);
}

template <int D>
std::vector<std::size_t> locate_points_keys(
    KeySpan leaves, okey_t root,
    const std::vector<std::array<coord_t, D>>& points) {
  std::vector<std::size_t> result(points.size(), npos);
  // Precompute each point's finest-cell key once; containment along the
  // descent is then a prefix test instead of D coordinate masks.
  std::vector<okey_t> cells(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    cells[i] = point_cell_key<D>(points[i]);
  }
  std::vector<std::size_t> all(points.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  const std::function<void(okey_t, std::size_t, std::size_t,
                           std::vector<std::size_t>&)>
      rec = [&](okey_t node, std::size_t lo, std::size_t hi,
                std::vector<std::size_t>& pts) {
        if (lo >= hi || pts.empty()) return;
        if (hi - lo == 1 && leaves[lo] == node) {
          for (const std::size_t p : pts) result[p] = lo;
          return;
        }
        assert(key_level<D>(node) < max_level<D>);
        std::size_t begin = lo;
        for (int c = 0; c < num_children<D>; ++c) {
          const okey_t ch = key_child<D>(node, c);
          const morton_t end_key = key_interval_end<D>(ch);
          const auto it = std::partition_point(
              leaves.begin() + begin, leaves.begin() + hi,
              [&](okey_t k) { return key_interval_begin<D>(k) < end_key; });
          const auto next = static_cast<std::size_t>(it - leaves.begin());
          std::vector<std::size_t> sub;
          for (const std::size_t p : pts) {
            if (key_contains(ch, cells[p])) sub.push_back(p);
          }
          rec(ch, begin, next, sub);
          begin = next;
        }
      };
  rec(root, 0, leaves.size(), all);
  return result;
}

#define OCTBAL_INSTANTIATE(D)                                                \
  template void search_tree<D>(                                             \
      const std::vector<Octant<D>>&, const Octant<D>&,                      \
      const std::function<bool(const Octant<D>&, std::size_t,               \
                               std::size_t)>&,                              \
      const std::function<void(const Octant<D>&, std::size_t)>&);           \
  template void search_tree_keys<D>(                                        \
      KeySpan, okey_t,                                                      \
      const std::function<bool(okey_t, std::size_t, std::size_t)>&,         \
      const std::function<void(okey_t, std::size_t)>&);                     \
  template std::size_t find_containing_leaf<D>(                             \
      const std::vector<Octant<D>>&, const std::array<coord_t, D>&);        \
  template std::vector<std::size_t> locate_points<D>(                       \
      const std::vector<Octant<D>>&, const Octant<D>&,                      \
      const std::vector<std::array<coord_t, D>>&);                          \
  template std::vector<std::size_t> locate_points_keys<D>(                  \
      KeySpan, okey_t, const std::vector<std::array<coord_t, D>>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
