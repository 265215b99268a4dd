#include "core/seeds.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/lambda.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "obs/mem.hpp"

namespace octbal {

template <int D>
std::vector<Octant<D>> balance_seeds(const Octant<D>& o, const Octant<D>& r,
                                     int k) {
  require_balance_k<D>(k, "balance_seeds");
  if (overlaps(o, r)) {
    throw std::invalid_argument("balance_seeds: o = " + to_string(o) +
                                " overlaps r = " + to_string(r));
  }
  std::vector<Octant<D>> out;
  if (r.level > o.level) return out;  // r is finer than o: o cannot split it
  // a: the finest leaf of Tk(o) inside r, at the closest position to o;
  // a == r exactly when r is already balanced with o.
  const Octant<D> a = closest_balanced(o, r, k);
  if (a.level == r.level) return out;
  out.push_back(a);
  std::vector<Octant<D>> nbhd;

  // Grow the generator set outward: wherever a parent-sized neighbor
  // position of an existing seed is still too coarse for Tk(o), add the
  // closest balanced octant there.  Since Tk(o) grows coarser away from o,
  // this closure visits the O(1)-size "too fine" region of r only.
  // Every generator is also a work item, in the same order, so the FIFO
  // work queue is the suffix of out past the cursor.
  for (std::size_t next = 0; next < out.size(); ++next) {
    const Octant<D> s = out[next];
    nbhd.clear();
    coarse_neighborhood(s, k, r, nbhd);
    for (const Octant<D>& n : nbhd) {
      const Octant<D> t = closest_balanced(o, n, k);
      if (t.level == n.level) continue;  // n can be a leaf
      if (std::find(out.begin(), out.end(), t) != out.end()) continue;
      out.push_back(t);
    }
  }
  // Accounted at the closure's high-water point: the generator set plus the
  // last probed neighborhood (the work queue is a suffix of the generators).
  const obs::MemScope seeds_mem(
      obs::MemTag::kSeeds, (out.size() + nbhd.size()) * sizeof(Octant<D>));
  linearize(out);
  return out;
}

#define OCTBAL_INSTANTIATE(D)                                           \
  template std::vector<Octant<D>> balance_seeds<D>(const Octant<D>&,    \
                                                   const Octant<D>&, int);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
