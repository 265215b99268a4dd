#include "core/balance_check.hpp"

#include "core/linear.hpp"
#include "core/neighborhood.hpp"

namespace octbal {

template <int D>
int adjacency_codim(const Octant<D>& a, const Octant<D>& b) {
  int codim = 0;
  for (int i = 0; i < D; ++i) {
    const scoord_t alo = a.x[i], ahi = alo + static_cast<scoord_t>(side_len(a));
    const scoord_t blo = b.x[i], bhi = blo + static_cast<scoord_t>(side_len(b));
    const scoord_t lo = alo > blo ? alo : blo;
    const scoord_t hi = ahi < bhi ? ahi : bhi;
    if (hi < lo) return -1;   // separated
    if (hi == lo) ++codim;    // touching at a point in this dimension
  }
  return codim;  // 0 means interior overlap
}

namespace {

/// Visit each ordered pair (coarse leaf, strictly finer adjacent leaf) that
/// violates 2:1 under condition k; returns true at the first violation.
template <int D>
bool scan_violation(const std::vector<Octant<D>>& t, int k,
                    const Octant<D>& domain, Octant<D>* va, Octant<D>* vb) {
  Octant<D> n;
  for (const Octant<D>& leaf : t) {
    for (const auto& off : balance_offsets<D>(k)) {
      if (!neighbor_in<D>(leaf, off, domain, &n)) continue;
      const auto [lo, hi] = overlapping_range(t, n);
      for (std::size_t j = lo; j < hi; ++j) {
        const Octant<D>& m = t[j];
        if (m.level <= leaf.level + 1) continue;
        const int c = adjacency_codim(leaf, m);
        if (c >= 1 && c <= k) {
          if (va) *va = leaf;
          if (vb) *vb = m;
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

template <int D>
bool is_balanced(const std::vector<Octant<D>>& t, int k,
                 const Octant<D>& domain) {
  require_balance_k<D>(k, "is_balanced");
  return !scan_violation(t, k, domain, static_cast<Octant<D>*>(nullptr),
                         static_cast<Octant<D>*>(nullptr));
}

template <int D>
bool find_violation(const std::vector<Octant<D>>& t, int k,
                    const Octant<D>& domain, Octant<D>* a, Octant<D>* b) {
  require_balance_k<D>(k, "find_violation");
  return scan_violation(t, k, domain, a, b);
}

#define OCTBAL_INSTANTIATE(D)                                             \
  template int adjacency_codim<D>(const Octant<D>&, const Octant<D>&);    \
  template bool is_balanced<D>(const std::vector<Octant<D>>&, int,        \
                               const Octant<D>&);                         \
  template bool find_violation<D>(const std::vector<Octant<D>>&, int,     \
                                  const Octant<D>&, Octant<D>*, Octant<D>*);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
