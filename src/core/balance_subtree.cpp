#include "core/balance_subtree.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/octant_hash.hpp"
#include "core/reduce.hpp"
#include "core/sort.hpp"
#include "obs/mem.hpp"

namespace octbal {

namespace {

/// True iff \p k is the key of some level in [0, max_level]: its
/// placeholder bit sits at D·(level + 2).
template <int D>
bool key_well_formed(okey_t k) {
  const int w = static_cast<int>(std::bit_width(k)) - 1;
  return w >= 2 * D && w % D == 0 && w <= D * key_coord_bits<D>;
}

/// The root's halo, the root grown by one root side in each direction, as
/// bounds on biased finest-cell coordinates, and the balance condition.
/// Exterior constraints can sit up to a root length away; their ripple
/// reaches the interior through the halo (the paper's "auxiliary octants
/// ... to bridge the gap", Figure 4b).  For interior inputs the halo changes
/// nothing: the root is convex and the λ profiles are metric.
template <int D>
struct Halo {
  int level = 0;  ///< the root's level
  std::array<scoord_t, D> lo{}, hi{};
  const std::vector<std::array<int, D>>* offs = nullptr;

  /// The checks both algorithms share, in order: k, the root, every input
  /// inside the halo, and S sorted and linear (both algorithms
  /// binary-search the input and complete around it).
  Halo(KeySpan s, int k, okey_t root, const std::string& fn) {
    require_balance_k<D>(k, fn.c_str());
    offs = &balance_offsets<D>(k);
    // A root in its tree keeps the halo inside the keys' exterior headroom.
    if (!key_well_formed<D>(root) ||
        !key_contains(key_of(root_octant<D>()), root)) {
      throw std::invalid_argument(fn + ": the root is not a valid octant");
    }
    level = key_level<D>(root);
    const scoord_t rl = scoord_t{1} << (max_level<D> - level);
    const morton_t m = key_morton<D>(root);
    for (int i = 0; i < D; ++i) {
      lo[i] = static_cast<scoord_t>(detail::lane_compact<D>(m, i)) - rl;
      hi[i] = lo[i] + 3 * rl;
    }
    for (const okey_t q : s) {
      if (!key_well_formed<D>(q)) {
        throw std::invalid_argument(fn + ": an input is not extended-valid");
      }
      const scoord_t h = scoord_t{1} << (max_level<D> - key_level<D>(q));
      const morton_t mq = key_morton<D>(q);
      for (int i = 0; i < D; ++i) {
        const auto x = static_cast<scoord_t>(detail::lane_compact<D>(mq, i));
        if (x < lo[i] || x + h > hi[i]) {
          throw std::invalid_argument(fn + ": " + to_string(key_oct<D>(q)) +
                                      " lies outside the root's halo");
        }
      }
    }
    if (!is_linear_keys(s)) {
      throw std::invalid_argument(fn + ": input is not a sorted linear array");
    }
  }

  /// Appends N(o), the coarse neighborhood, clipped to the halo.  Each
  /// dimension spreads the parent's coordinate moved by -1, 0 and +1 sides
  /// into its Morton lane once; a neighbor is then an OR of D lanes.
  void coarse_neighborhood(okey_t o, std::vector<okey_t>& out) const {
    const int l = key_level<D>(o) - 1;  // the parent's level
    if (l <= level) return;
    const scoord_t h = scoord_t{1} << (max_level<D> - l);
    const morton_t m = key_morton<D>(key_parent<D>(o));
    std::array<std::array<morton_t, 3>, D> lane{};
    std::array<std::array<bool, 3>, D> in{};
    const okey_t mark = okey_t{1} << (D * (l + 2));
    const int shift = D * (max_level<D> - l);
    for (int i = 0; i < D; ++i) {
      const auto x = static_cast<scoord_t>(detail::lane_compact<D>(m, i));
      for (int s = 0; s < 3; ++s) {
        const scoord_t c = x + (s - 1) * h;
        in[i][s] = lo[i] <= c && c + h <= hi[i];
        if (in[i][s]) lane[i][s] = detail::lane_spread<D>(c, i);
      }
    }
    for (const auto& off : *offs) {
      bool ok = true;
      morton_t n = 0;
      for (int i = 0; i < D; ++i) {
        ok &= in[i][off[i] + 1];
        n |= lane[i][off[i] + 1];
      }
      if (ok) out.push_back(mark | (n >> shift));
    }
  }
};

}  // namespace

template <int D>
std::vector<okey_t> balance_subtree_old(KeySpan s, int k, okey_t root,
                                        SubtreeBalanceStats* stats) {
  const Halo<D> halo(s, k, root, "balance_subtree_old");
  SubtreeBalanceStats local;
  HashStats hs;
  OctantHashSet<D> w(s.size() * 4 + 16, &hs);
  // The work queue: S, then every created octant in order of creation.
  std::vector<okey_t> work(s.begin(), s.end());
  std::vector<okey_t> nbhd;

  // Attempt to register octant q; newly seen octants are queued so that
  // every octant in S ∪ Snew eventually adds its family and N(o) (Figure 6).
  const auto try_add = [&](okey_t q) {
    if (w.contains(q)) return;
    ++local.binary_searches;
    if (std::binary_search(s.begin(), s.end(), q, key_less)) return;
    w.insert(q);
    work.push_back(q);
  };

  for (std::size_t head = 0; head < work.size(); ++head) {
    const okey_t o = work[head];
    if (key_level<D>(o) > halo.level) {
      for (int i = 0; i < num_children<D>; ++i) try_add(key_sibling<D>(o, i));
    }
    nbhd.clear();
    halo.coarse_neighborhood(o, nbhd);
    for (const okey_t n : nbhd) try_add(n);
  }

  // The queue now holds S ∪ Snew, the set Linearize sorts.
  local.sorted_octants = work.size();
  const obs::MemScope working(obs::MemTag::kInsulation,
                              work.size() * sizeof(okey_t));
  linearize_keys(work);  // sorts and drops the parent/leaf overlap
  // Exterior octants are legal *inputs* but never leaves of the result;
  // dyadic cubes never straddle the root boundary.
  std::erase_if(work, [&](okey_t q) { return !key_contains(root, q); });
  std::vector<okey_t> out = complete_keys<D>(work, root);
  local.hash_queries = hs.queries;
  local.hash_probes = hs.probes;
  local.hash_rehash_probes = hs.rehash_probes;
  local.output_octants = out.size();
  if (stats) *stats += local;
  return out;
}

template <int D>
std::vector<okey_t> balance_subtree_new(KeySpan s, int k, okey_t root,
                                        SubtreeBalanceStats* stats) {
  const Halo<D> halo(s, k, root, "balance_subtree_new");
  SubtreeBalanceStats local;
  // Preclusion compression is only lossless when the completion domain can
  // regenerate the dropped octant, i.e. when its parent lies inside the
  // root.  Exterior constraint octants (whose influence enters only through
  // their clipped coarse neighborhoods) must therefore be kept verbatim:
  // reduce the interior part only and merge the exterior 0-sibling
  // representatives back in.  Exterior parents never contain interior ones
  // (dyadic cubes cannot straddle the root boundary), so the merged array
  // still has a unique preclusion candidate per interior search.
  std::vector<okey_t> interior, exterior;
  interior.reserve(s.size());
  for (const okey_t o : s) {
    (key_contains(root, o) ? interior : exterior).push_back(o);
  }
  std::vector<okey_t> r = reduce_keys<D>(interior);
  if (!exterior.empty()) {
    for (okey_t& o : exterior) o = key_zero_sibling<D>(o);
    std::sort(exterior.begin(), exterior.end(), key_less);
    exterior.erase(std::unique(exterior.begin(), exterior.end()),
                   exterior.end());
    r.insert(r.end(), exterior.begin(), exterior.end());
    std::sort(r.begin(), r.end(), key_less);
  }
  std::vector<char> r_prec(r.size(), 0);

  HashStats hs;
  // Sized so the working set (created 0-sibling representatives, a small
  // multiple of |S| in the worst observed workloads) never grows: the perf
  // pass measured a 2x probe-count reduction over |S|+16 sizing at zero
  // rehash traffic (tests/test_perf_guards.cpp pins the resulting counts).
  OctantHashSet<D> w(s.size() * 2 + 16, &hs);
  std::vector<okey_t> work(r.begin(), r.end());  // R, then created octants
  std::vector<okey_t> nbhd;

  for (std::size_t head = 0; head < work.size(); ++head) {
    const okey_t o = work[head];
    nbhd.clear();
    halo.coarse_neighborhood(o, nbhd);
    for (const okey_t n : nbhd) {
      const okey_t c = key_zero_sibling<D>(n);  // family representative
      if (w.contains(c)) continue;
      // One binary search answers both membership in R and preclusion by R.
      ++local.binary_searches;
      const std::size_t idx = find_precluding_le<D>(r, c);
      const bool in_r = idx != npos && r[idx] == c;
      if (!in_r) {
        if (idx != npos) r_prec[idx] = 1;  // an R octant is precluded by c
        w.insert(c);
        work.push_back(c);
      }
      // c is itself precluded when a finer family (o's) lives inside its
      // parent; tag rather than remove so propagation still happens.
      if (key_precludes_lt<D>(c, o)) {
        if (in_r) {
          r_prec[idx] = 1;
        } else {
          w.tag(c);
        }
      }
    }
  }

  std::vector<okey_t> merged;
  merged.reserve(r.size() + w.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!r_prec[i]) merged.push_back(r[i]);
  }
  w.collect(merged, /*skip_tagged=*/true);
  local.sorted_octants = merged.size();
  const obs::MemScope working(obs::MemTag::kInsulation,
                              merged.size() * sizeof(okey_t));
  sort_keys(merged);
  // The explicit tags above catch preclusions against R and against the
  // octant being processed; preclusions between two *new* octants from
  // different ripple chains are caught by this O(n) sweep (overlapping
  // family representatives always preclude one another, so the sweep also
  // restores linearity before completion).
  merged = reduce_keys<D>(merged);
  std::erase_if(merged, [&](okey_t q) { return !key_contains(root, q); });
  // reduce() can never preclude a level-0 leaf: the root has no parent, so
  // it sits outside the preclusion order.  When S is a lone root leaf and
  // exterior constraints rippled finer octants into the tree, the root
  // (always first: minimal key, coarsest tie-break) must yield or the set
  // is not linear; completion regenerates the coarse filler around the
  // survivors.
  if (merged.size() > 1 && key_level<D>(merged.front()) == 0) {
    merged.erase(merged.begin());
  }
  std::vector<okey_t> out = complete_keys<D>(merged, root);
  local.hash_queries = hs.queries;
  local.hash_probes = hs.probes;
  local.hash_rehash_probes = hs.rehash_probes;
  local.output_octants = out.size();
  if (stats) *stats += local;
  return out;
}

template <int D>
std::vector<Octant<D>> balance_subtree(SubtreeAlgo algo,
                                       const std::vector<Octant<D>>& s, int k,
                                       const Octant<D>& root,
                                       SubtreeBalanceStats* stats) {
  // key_of rounds a misaligned anchor silently, and its shifts are
  // undefined outside [0, max_level]: an octant it cannot pack goes in as
  // key 0, which the kernel rejects.
  std::vector<okey_t> keys(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    keys[i] = is_extended_valid(s[i]) ? key_of(s[i]) : 0;
  }
  const okey_t r = is_valid(root) ? key_of(root) : 0;
  return keys_to_octants<D>(balance_subtree<D>(algo, keys, k, r, stats));
}

#define OCTBAL_INSTANTIATE(D)                                               \
  template std::vector<okey_t> balance_subtree_old<D>(                      \
      KeySpan, int, okey_t, SubtreeBalanceStats*);                          \
  template std::vector<okey_t> balance_subtree_new<D>(                      \
      KeySpan, int, okey_t, SubtreeBalanceStats*);                          \
  template std::vector<Octant<D>> balance_subtree<D>(                       \
      SubtreeAlgo, const std::vector<Octant<D>>&, int, const Octant<D>&,    \
      SubtreeBalanceStats*);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
