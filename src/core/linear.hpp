#pragma once
/// \file linear.hpp
/// \brief Algorithms on *linear octrees*: sorted arrays of leaf octants.
///
/// A sorted octant array is *linear* if no element is an ancestor of another
/// (no overlaps) and *complete* if consecutive leaves leave no gaps, i.e. the
/// array tiles its root exactly (Section III of the paper).
///
/// The kernels run over packed-key arrays (core/key.hpp), whose inner loops
/// are prefix tests and shifts; the Octant<D> entry points pack, call the
/// key kernel and unpack (linearize below the radix crossover excepted,
/// where packing costs more than it saves).

#include <vector>

#include "core/key.hpp"
#include "core/octant.hpp"

namespace octbal {

/// Sort \p a and remove duplicates and ancestors, keeping the finest octants
/// (the leaves).  This is the paper's Linearize, O(n log n) including sorting
/// (O(n) once sorted).
template <int D>
void linearize(std::vector<Octant<D>>& a);

/// Key-native Linearize: the same sort, ancestor drop and record-buffer
/// charge as linearize.  Dimension-independent.
void linearize_keys(std::vector<okey_t>& a);

/// Remove duplicates and ancestors from the sorted array \p a, keeping the
/// finest: one in-place pass, since in Morton preorder an ancestor directly
/// precedes its descendants and \p contains is reflexive.
template <class T, class Contains>
void drop_ancestors(std::vector<T>& a, Contains contains) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i + 1 < a.size() && contains(a[i], a[i + 1])) continue;
    a[w++] = a[i];
  }
  a.resize(w);
}

/// True iff \p a is sorted, duplicate-free, and ancestor-free.
template <int D>
bool is_linear(const std::vector<Octant<D>>& a);

bool is_linear_keys(KeySpan a);

/// True iff the linear array \p a completely tiles \p root.
template <int D>
bool is_complete(const std::vector<Octant<D>>& a, const Octant<D>& root);

/// The paper's Complete: given a linear (gap-ridden) array \p a inside
/// \p root, return the coarsest complete linear octree of \p root that
/// contains every element of \p a as a leaf.  Throws
/// std::invalid_argument when \p root or an element of \p a is not an
/// extended-valid octant, when \p a is not linear, or when it has an
/// element outside \p root (checked on the fly, O(1) per element).
template <int D>
std::vector<Octant<D>> complete(const std::vector<Octant<D>>& a,
                                const Octant<D>& root);

/// Key-native Complete: the same coarsest-tiling recursion with the Morton
/// intervals and child descent computed by key shifts.  The same checks.
template <int D>
std::vector<okey_t> complete_keys(KeySpan a, okey_t root);

/// Index of the first element of the sorted linear array \p a that overlaps
/// octant \p q, and one past the last, as a half-open range.  Empty range if
/// nothing overlaps.  An overlapping element is either a descendant of \p q
/// or a (single possible) ancestor of \p q.
template <int D>
std::pair<std::size_t, std::size_t> overlapping_range(
    const std::vector<Octant<D>>& a, const Octant<D>& q);

/// Binary search for an exact element.  Returns its index or npos.
template <int D>
std::size_t binary_find(const std::vector<Octant<D>>& a, const Octant<D>& q);

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

}  // namespace octbal
