#include "core/ripple.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/balance_check.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"

namespace octbal {

template <int D>
std::vector<Octant<D>> ripple_balance(std::vector<Octant<D>> s, int k,
                                      const Octant<D>& domain) {
  require_balance_k<D>(k, "ripple_balance");
  linearize(s);
  std::vector<Octant<D>> t = complete(s, domain);
  Octant<D> n;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<char> split(t.size(), 0);
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Octant<D>& leaf = t[i];
      bool violated = false;
      for (const auto& off : balance_offsets<D>(k)) {
        if (violated) break;
        if (!neighbor_in<D>(leaf, off, domain, &n)) continue;
        const auto [lo, hi] = overlapping_range(t, n);
        for (std::size_t j = lo; j < hi; ++j) {
          const Octant<D>& m = t[j];
          if (m.level <= leaf.level + 1) continue;
          const int c = adjacency_codim(leaf, m);
          if (c >= 1 && c <= k) {
            violated = true;
            break;
          }
        }
      }
      if (violated) split[i] = 1;
    }
    std::vector<Octant<D>> next;
    next.reserve(t.size() + 8);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!split[i]) {
        next.push_back(t[i]);
      } else {
        changed = true;
        for (int c = 0; c < num_children<D>; ++c)
          next.push_back(child(t[i], c));
      }
    }
    // Splitting in Morton order preserves sortedness: children replace the
    // parent in place and stay within its Morton interval.
    t.swap(next);
  }
  return t;
}

template <int D>
std::vector<Octant<D>> tk_of(const Octant<D>& o, int k,
                             const Octant<D>& domain) {
  require_balance_k<D>(k, "tk_of");
  return ripple_balance(std::vector<Octant<D>>{o}, k, domain);
}

template <int D>
bool balanced_pair_oracle(const Octant<D>& o, const Octant<D>& r, int k,
                          const Octant<D>& domain) {
  require_balance_k<D>(k, "balanced_pair_oracle");
  if (overlaps(o, r)) {
    throw std::invalid_argument("balanced_pair_oracle: o = " + to_string(o) +
                                " overlaps r = " + to_string(r));
  }
  const std::vector<Octant<D>> t = tk_of(o, k, domain);
  const auto [lo, hi] = overlapping_range(t, r);
  for (std::size_t j = lo; j < hi; ++j) {
    if (t[j].level > r.level) return false;
  }
  return true;
}

#define OCTBAL_INSTANTIATE(D)                                                \
  template std::vector<Octant<D>> ripple_balance<D>(std::vector<Octant<D>>,  \
                                                    int, const Octant<D>&);  \
  template std::vector<Octant<D>> tk_of<D>(const Octant<D>&, int,            \
                                           const Octant<D>&);                \
  template bool balanced_pair_oracle<D>(const Octant<D>&, const Octant<D>&,  \
                                        int, const Octant<D>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
