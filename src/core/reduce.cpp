#include "core/reduce.hpp"

#include <algorithm>

namespace octbal {

namespace {

/// Preclusion with the root handled explicitly: the root has no parent, so
/// it neither precludes nor is precluded.
template <int D>
bool le(const Octant<D>& r, const Octant<D>& o) {
  if (r.level == 0 || o.level == 0) return r == o;
  return precludes_le(r, o);
}

}  // namespace

template <int D>
std::vector<okey_t> reduce_keys(KeySpan s) {
  std::vector<okey_t> r;
  if (s.empty()) return r;
  r.reserve(s.size() / num_children<D> + 1);
  r.push_back(key_zero_sibling<D>(s[0]));
  for (std::size_t j = 1; j < s.size(); ++j) {
    const okey_t c = key_zero_sibling<D>(s[j]);
    okey_t& last = r.back();
    if (key_precludes_lt<D>(last, c)) {
      last = c;
    } else if (!key_precludes_le<D>(c, last)) {
      r.push_back(c);
    }
  }
  return r;
}

template <int D>
std::vector<Octant<D>> reduce(const std::vector<Octant<D>>& s) {
  return keys_to_octants<D>(reduce_keys<D>(octants_to_keys(s)));
}

template <int D>
std::size_t find_precluding_le(const std::vector<Octant<D>>& r,
                               const Octant<D>& q) {
  const Octant<D> s = zero_sibling(q);
  // A precluding element t has parent(t) containing parent(q), hence
  // key(t) == key(parent(t)) <= key(s); any reduced element strictly between
  // t and s would itself be precluded by contradiction, so the only
  // candidate is the greatest element <= s.
  auto it = std::upper_bound(r.begin(), r.end(), s);
  if (it == r.begin()) return npos;
  --it;
  if (le(*it, q)) return static_cast<std::size_t>(it - r.begin());
  return npos;
}

#define OCTBAL_INSTANTIATE(D)                                               \
  template std::vector<Octant<D>> reduce<D>(const std::vector<Octant<D>>&); \
  template std::vector<okey_t> reduce_keys<D>(KeySpan);                     \
  template std::size_t find_precluding_le<D>(const std::vector<Octant<D>>&, \
                                             const Octant<D>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
