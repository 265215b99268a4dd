#include "core/linear.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/sort.hpp"
#include "obs/mem.hpp"

namespace octbal {

namespace {

/// Morton interval arithmetic: an octant covers the half-open key interval
/// [key, key + 2^(D*size_exp)).  Dyadic intervals of distinct octants either
/// nest or are disjoint, which reduces gap filling to interval arithmetic.
template <int D>
morton_t interval_begin(const Octant<D>& o) {
  return morton_key(o);
}

template <int D>
morton_t interval_end(const Octant<D>& o) {
  return morton_key(o) + (morton_t{1} << (D * size_exp(o)));
}

/// Emit the coarsest dyadic tiling of ival(cur) ∩ [lo, hi), the interval
/// bounds and the child descent derived from the packed key by shifts.
template <int D>
void fill_rec_keys(okey_t cur, morton_t lo, morton_t hi,
                   std::vector<okey_t>& out) {
  const morton_t b = key_interval_begin<D>(cur), e = key_interval_end<D>(cur);
  if (e <= lo || b >= hi) return;
  if (lo <= b && e <= hi) {
    out.push_back(cur);
    return;
  }
  assert(key_level<D>(cur) < max_level<D>);
  for (int i = 0; i < num_children<D>; ++i) {
    fill_rec_keys<D>(key_child<D>(cur, i), lo, hi, out);
  }
}

/// Fused keyed linearize: pack into pass records once, sort, and run the
/// ancestor-drop on the raw keys, writing back only the survivors — no
/// separate key-vector conversions.  The records are charged as linearize
/// buffers, whichever representation \p a holds.
template <class T, class Pack, class Unpack>
void linearize_recs(std::vector<T>& a, Pack pack, Unpack unpack) {
  const std::size_t n = a.size();
  const obs::MemScope records(obs::MemTag::kLinearize,
                              2 * n * sizeof(detail::KeyRec));
  std::vector<detail::KeyRec> cur, tmp;
  cur.reserve(n);
  for (const T& x : a) cur.push_back(pack(x));
  detail::radix_sort_recs(cur, tmp, nullptr);
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && key_contains(cur[i].key, cur[i + 1].key)) continue;
    a[w++] = unpack(cur[i]);
  }
  a.resize(w);
}

template <int D>
void fill_gap_keys(okey_t root, okey_t after, okey_t before,
                   std::vector<okey_t>& out) {
  const morton_t lo =
      after ? key_interval_end<D>(after) : key_interval_begin<D>(root);
  const morton_t hi =
      before ? key_interval_begin<D>(before) : key_interval_end<D>(root);
  if (lo >= hi) return;
  fill_rec_keys<D>(root, lo, hi, out);
}

}  // namespace

void linearize_keys(std::vector<okey_t>& a) {
  if (a.size() < detail::kRadixThreshold) {
    sort_keys(a);
    drop_ancestors(a, key_contains);
  } else {
    linearize_recs(
        a, [](okey_t k) { return detail::KeyRec{key_norm(k), k}; },
        [](const detail::KeyRec& r) { return r.key; });
  }
}

template <int D>
void linearize(std::vector<Octant<D>>& a) {
  // Same crossover as sort_octants: below the radix regime packing into key
  // records would be pure overhead, and the array is identical either way.
  if (a.size() < detail::kRadixThreshold) {
    sort_octants(a);
    drop_ancestors(a, contains<D>);
  } else {
    linearize_recs(a, detail::key_rec_of<D>, detail::rec_oct<D>);
  }
}

template <int D>
bool is_linear(const std::vector<Octant<D>>& a) {
  // Dyadic intervals nest or are disjoint, so "sorted, duplicate-free and
  // ancestor-free" is "each interval ends before the next one begins": one
  // Morton key per octant.
  morton_t end = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const morton_t begin = interval_begin(a[i]);
    if (i > 0 && end > begin) return false;
    end = begin + (morton_t{1} << (D * size_exp(a[i])));
  }
  return true;
}

bool is_linear_keys(KeySpan a) {
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    if (!key_less(a[i], a[i + 1])) return false;
    if (key_contains(a[i], a[i + 1])) return false;
  }
  return true;
}

template <int D>
bool is_complete(const std::vector<Octant<D>>& a, const Octant<D>& root) {
  if (a.empty()) return false;
  if (interval_begin(a.front()) != interval_begin(root)) return false;
  if (interval_end(a.back()) != interval_end(root)) return false;
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    if (interval_end(a[i]) != interval_begin(a[i + 1])) return false;
  }
  return true;
}

template <int D>
std::vector<okey_t> complete_keys(KeySpan a, okey_t root) {
  const obs::MemScope fill(obs::MemTag::kLinearize,
                           (a.size() * 2 + 8) * sizeof(okey_t));
  std::vector<okey_t> out;
  out.reserve(a.size() * 2 + 8);
  okey_t prev = 0;  // 0 = no predecessor (never a real key)
  for (const okey_t o : a) {
    if (!key_contains(root, o)) {
      throw std::invalid_argument("complete: " + to_string(key_oct<D>(o)) +
                                  " lies outside the root " +
                                  to_string(key_oct<D>(root)));
    }
    if (prev != 0 && (!key_less(prev, o) || key_contains(prev, o))) {
      throw std::invalid_argument("complete: the input is not linear at " +
                                  to_string(key_oct<D>(o)));
    }
    fill_gap_keys<D>(root, prev, o, out);
    out.push_back(o);
    prev = o;
  }
  fill_gap_keys<D>(root, prev, okey_t{0}, out);
  return out;
}

template <int D>
std::vector<Octant<D>> complete(const std::vector<Octant<D>>& a,
                                const Octant<D>& root) {
  return keys_to_octants<D>(
      complete_keys<D>(checked_octants_to_keys(a, "complete"),
                       checked_key_of(root, "complete")));
}

template <int D>
std::pair<std::size_t, std::size_t> overlapping_range(
    const std::vector<Octant<D>>& a, const Octant<D>& q) {
  const morton_t qb = interval_begin(q), qe = interval_end(q);
  // First element whose interval extends past the start of q.
  const auto lo = std::partition_point(
      a.begin(), a.end(),
      [&](const Octant<D>& o) { return interval_end(o) <= qb; });
  // First element starting at or after the end of q.
  const auto hi = std::partition_point(
      lo, a.end(), [&](const Octant<D>& o) { return interval_begin(o) < qe; });
  return {static_cast<std::size_t>(lo - a.begin()),
          static_cast<std::size_t>(hi - a.begin())};
}

template <int D>
std::size_t binary_find(const std::vector<Octant<D>>& a, const Octant<D>& q) {
  const auto it = std::lower_bound(a.begin(), a.end(), q);
  if (it != a.end() && *it == q) return static_cast<std::size_t>(it - a.begin());
  return npos;
}

#define OCTBAL_INSTANTIATE(D)                                                  \
  template void linearize<D>(std::vector<Octant<D>>&);                         \
  template bool is_linear<D>(const std::vector<Octant<D>>&);                   \
  template bool is_complete<D>(const std::vector<Octant<D>>&,                  \
                               const Octant<D>&);                              \
  template std::vector<Octant<D>> complete<D>(const std::vector<Octant<D>>&,   \
                                              const Octant<D>&);               \
  template std::vector<okey_t> complete_keys<D>(KeySpan, okey_t);              \
  template std::pair<std::size_t, std::size_t> overlapping_range<D>(           \
      const std::vector<Octant<D>>&, const Octant<D>&);                        \
  template std::size_t binary_find<D>(const std::vector<Octant<D>>&,           \
                                      const Octant<D>&);

OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
