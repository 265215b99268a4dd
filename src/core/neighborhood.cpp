#include "core/neighborhood.hpp"

namespace octbal {

void throw_balance_k_out_of_range(int k, int dim, const char* who) {
  throw std::invalid_argument(std::string(who) + ": k = " +
                              std::to_string(k) + " is outside [1, " +
                              std::to_string(dim) + "]");
}

namespace {

template <int D>
std::vector<std::array<int, D>> make_offsets(int k) {
  std::vector<std::array<int, D>> offs;
  std::array<int, D> v{};
  int n = 1;
  for (int i = 0; i < D; ++i) n *= 3;
  // Enumerate {-1,0,1}^D in a fixed order and filter by codimension.
  for (int code = 0; code < n; ++code) {
    int c = code, nz = 0;
    for (int i = 0; i < D; ++i) {
      v[i] = (c % 3) - 1;
      c /= 3;
      if (v[i] != 0) ++nz;
    }
    if (nz >= 1 && nz <= k) offs.push_back(v);
  }
  return offs;
}

}  // namespace

template <int D>
const std::vector<std::array<int, D>>& balance_offsets(int k) {
  assert(1 <= k && k <= 3);
  static const std::vector<std::array<int, D>> table[3] = {
      make_offsets<D>(1), make_offsets<D>(2), make_offsets<D>(3)};
  return table[k - 1];
}

template <int D>
const std::vector<std::array<int, D>>& full_offsets() {
  return balance_offsets<D>(D);
}

template <int D>
bool neighbor_in(const Octant<D>& o, const std::array<int, D>& off,
                 const Octant<D>& domain, Octant<D>* out) {
  const scoord_t h = side_len(o);
  const scoord_t dh = side_len(domain);
  Octant<D> n;
  n.level = o.level;
  for (int i = 0; i < D; ++i) {
    const scoord_t c = static_cast<scoord_t>(o.x[i]) + off[i] * h;
    const scoord_t lo = static_cast<scoord_t>(domain.x[i]);
    if (c < lo || c + h > lo + dh) return false;
    n.x[i] = static_cast<coord_t>(c);
  }
  *out = n;
  return true;
}

template <int D>
void coarse_neighborhood(const Octant<D>& o, int k, const Octant<D>& domain,
                         std::vector<Octant<D>>& out) {
  require_balance_k<D>(k, "coarse_neighborhood");
  // Parent-sized neighbors only exist inside the domain if the parent is a
  // strict descendant of it.
  if (o.level <= domain.level + 1) return;
  const Octant<D> p = parent(o);
  Octant<D> n;
  for (const auto& off : balance_offsets<D>(k)) {
    if (neighbor_in<D>(p, off, domain, &n)) out.push_back(n);
  }
}

#define OCTBAL_INSTANTIATE(D)                                                \
  template const std::vector<std::array<int, D>>& balance_offsets<D>(int);   \
  template const std::vector<std::array<int, D>>& full_offsets<D>();         \
  template bool neighbor_in<D>(const Octant<D>&, const std::array<int, D>&,  \
                               const Octant<D>&, Octant<D>*);                \
  template void coarse_neighborhood<D>(const Octant<D>&, int,               \
                                       const Octant<D>&,                     \
                                       std::vector<Octant<D>>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
