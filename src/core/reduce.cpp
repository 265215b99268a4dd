#include "core/reduce.hpp"

#include <algorithm>

namespace octbal {

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
  return keys_to_octants<D>(
      reduce_keys<D>(checked_octants_to_keys(s, "reduce")));
}

template <int D>
std::size_t find_precluding_le(KeySpan r, okey_t q) {
  const okey_t s = key_zero_sibling<D>(q);
  // A precluding element t has parent(t) containing parent(q), and t is a
  // 0-sibling anchored at parent(t), hence t <= s; any reduced element
  // strictly between t and s would itself be precluded by contradiction, so
  // the only candidate is the greatest element <= s.
  const okey_t* it = std::upper_bound(r.begin(), r.end(), s, key_less);
  if (it == r.begin()) return npos;
  --it;
  if (key_precludes_le<D>(*it, q)) {
    return static_cast<std::size_t>(it - r.begin());
  }
  return npos;
}

#define OCTBAL_INSTANTIATE(D)                                               \
  template std::vector<Octant<D>> reduce<D>(const std::vector<Octant<D>>&); \
  template std::vector<okey_t> reduce_keys<D>(KeySpan);                     \
  template std::size_t find_precluding_le<D>(KeySpan, okey_t);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
