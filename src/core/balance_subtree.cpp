#include "core/balance_subtree.hpp"

#include <algorithm>
#include <deque>
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

/// Throws std::invalid_argument unless \p s is sorted and linear: both
/// algorithms binary-search the input and complete around it.
template <int D>
void require_linear(const std::vector<Octant<D>>& s, const char* who) {
  if (!is_linear(s)) {
    throw std::invalid_argument(std::string(who) +
                                ": input is not a sorted linear array");
  }
}

/// Drop octants that lie outside \p root.  Exterior octants are legal
/// *inputs* (auxiliary constraints transformed from neighboring trees or
/// partitions) but never leaves of the completed result.  Dyadic cubes
/// never straddle the root boundary, so containment is all-or-nothing.
template <int D>
void drop_outside(std::vector<Octant<D>>& a, const Octant<D>& root) {
  std::erase_if(a, [&](const Octant<D>& o) { return !contains(root, o); });
}

/// Coarse neighborhood clipped to the *halo* of the root: the root enlarged
/// by one root side length per direction.  Exterior constraint octants can
/// sit up to a full root length away from the root; their ripple has to
/// propagate through the halo to reach the interior (these are precisely
/// the paper's "auxiliary octants ... to bridge the gap", Figure 4b).  For
/// interior inputs the halo changes nothing: the root is convex and the
/// λ profiles are metric, so an out-and-back path never forces anything a
/// direct interior path has not already forced — a fact the oracle tests
/// in tests/test_balance_subtree.cpp confirm.
template <int D>
void coarse_neighborhood_halo(const Octant<D>& o, int k, const Octant<D>& root,
                              std::vector<Octant<D>>& out) {
  if (o.level <= root.level + 1) return;
  const Octant<D> p = parent(o);
  const scoord_t h = side_len(p);
  const scoord_t rl = side_len(root);
  Octant<D> n;
  n.level = p.level;
  for (const auto& off : balance_offsets<D>(k)) {
    bool ok = true;
    for (int i = 0; i < D; ++i) {
      const scoord_t c = static_cast<scoord_t>(p.x[i]) + off[i] * h;
      const scoord_t lo = static_cast<scoord_t>(root.x[i]) - rl;
      const scoord_t hi = static_cast<scoord_t>(root.x[i]) + 2 * rl;
      if (c < lo || c + h > hi) {
        ok = false;
        break;
      }
      n.x[i] = static_cast<coord_t>(c);
    }
    if (ok) out.push_back(n);
  }
}

}  // namespace

template <int D>
std::vector<Octant<D>> balance_subtree_old(const std::vector<Octant<D>>& s,
                                           int k, const Octant<D>& root,
                                           SubtreeBalanceStats* stats) {
  require_balance_k<D>(k, "balance_subtree_old");
  require_linear(s, "balance_subtree_old");
  SubtreeBalanceStats local;
  HashStats hs;
  OctantHashSet<D> w(s.size() * 4 + 16, &hs);
  std::deque<Octant<D>> work(s.begin(), s.end());
  std::vector<Octant<D>> nbhd;

  // Attempt to register octant q; newly seen octants are queued so that
  // every octant in S ∪ Snew eventually adds its family and N(o) (Figure 6).
  const auto try_add = [&](const Octant<D>& q) {
    if (w.contains(q)) return;
    ++local.binary_searches;
    if (binary_find(s, q) != npos) return;
    w.insert(q);
    work.push_back(q);
  };

  while (!work.empty()) {
    const Octant<D> o = work.front();
    work.pop_front();
    if (o.level > root.level) {
      for (const Octant<D>& f : family(o)) try_add(f);
    }
    nbhd.clear();
    coarse_neighborhood_halo(o, k, root, nbhd);
    for (const Octant<D>& n : nbhd) try_add(n);
  }

  std::vector<Octant<D>> merged(s.begin(), s.end());
  w.collect(merged);
  local.sorted_octants = merged.size();
  const obs::MemScope working(obs::MemTag::kInsulation,
                              merged.size() * sizeof(Octant<D>));
  linearize(merged);  // sorts and removes the overlap between parents/leaves
  drop_outside(merged, root);
  std::vector<Octant<D>> out = complete(merged, root);  // no-op when complete

  local.hash_queries = hs.queries;
  local.hash_probes = hs.probes;
  local.hash_rehash_probes = hs.rehash_probes;
  local.output_octants = out.size();
  if (stats) *stats += local;
  return out;
}

template <int D>
std::vector<Octant<D>> balance_subtree_new(const std::vector<Octant<D>>& s,
                                           int k, const Octant<D>& root,
                                           SubtreeBalanceStats* stats) {
  require_balance_k<D>(k, "balance_subtree_new");
  require_linear(s, "balance_subtree_new");
  SubtreeBalanceStats local;
  // Preclusion compression is only lossless when the completion domain can
  // regenerate the dropped octant, i.e. when its parent lies inside the
  // root.  Exterior constraint octants (whose influence enters only through
  // their clipped coarse neighborhoods) must therefore be kept verbatim:
  // reduce the interior part only and merge the exterior 0-sibling
  // representatives back in.  Exterior parents never contain interior ones
  // (dyadic cubes cannot straddle the root boundary), so the merged array
  // still has a unique preclusion candidate per interior search.
  std::vector<Octant<D>> interior, exterior;
  interior.reserve(s.size());
  for (const Octant<D>& o : s) {
    (contains(root, o) ? interior : exterior).push_back(o);
  }
  std::vector<Octant<D>> r = reduce(interior);
  if (!exterior.empty()) {
    for (Octant<D>& o : exterior) o = zero_sibling(o);
    std::sort(exterior.begin(), exterior.end());
    exterior.erase(std::unique(exterior.begin(), exterior.end()),
                   exterior.end());
    r.insert(r.end(), exterior.begin(), exterior.end());
    std::sort(r.begin(), r.end());
  }
  std::vector<char> r_prec(r.size(), 0);

  HashStats hs;
  // Sized so the working set (created 0-sibling representatives, a small
  // multiple of |S| in the worst observed workloads) never grows: the perf
  // pass measured a 2x probe-count reduction over |S|+16 sizing at zero
  // rehash traffic (tests/test_perf_guards.cpp pins the resulting counts).
  OctantHashSet<D> w(s.size() * 2 + 16, &hs);
  std::deque<Octant<D>> work(r.begin(), r.end());
  std::vector<Octant<D>> nbhd;

  while (!work.empty()) {
    const Octant<D> o = work.front();
    work.pop_front();
    nbhd.clear();
    coarse_neighborhood_halo(o, k, root, nbhd);
    for (const Octant<D>& n : nbhd) {
      const Octant<D> c = zero_sibling(n);  // family representative
      if (w.contains(c)) continue;
      // One binary search answers both membership in R and preclusion by R.
      ++local.binary_searches;
      const std::size_t idx = find_precluding_le(r, c);
      const bool in_r = idx != npos && r[idx] == c;
      if (!in_r) {
        if (idx != npos) r_prec[idx] = 1;  // an R octant is precluded by c
        w.insert(c);
        work.push_back(c);
      }
      // c is itself precluded when a finer family (o's) lives inside its
      // parent; tag rather than remove so propagation still happens.
      if (c.level > 0 && o.level > 0 && precludes_lt(c, o)) {
        if (in_r) {
          r_prec[idx] = 1;
        } else {
          w.tag(c);
        }
      }
    }
  }

  std::vector<Octant<D>> merged;
  merged.reserve(r.size() + w.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!r_prec[i]) merged.push_back(r[i]);
  }
  w.collect(merged, /*skip_tagged=*/true);
  local.sorted_octants = merged.size();
  const obs::MemScope working(obs::MemTag::kInsulation,
                              merged.size() * sizeof(Octant<D>));
  sort_octants(merged);
  // The explicit tags above catch preclusions against R and against the
  // octant being processed; preclusions between two *new* octants from
  // different ripple chains are caught by this O(n) sweep (overlapping
  // family representatives always preclude one another, so the sweep also
  // restores linearity before completion).
  merged = reduce(merged);
  drop_outside(merged, root);
  // reduce() can never preclude a level-0 leaf: the root has no parent, so
  // it sits outside the preclusion order.  When S is a lone root leaf and
  // exterior constraints rippled finer octants into the tree, the root
  // (always first: minimal key, coarsest tie-break) must yield or the set
  // is not linear; completion regenerates the coarse filler around the
  // survivors.
  if (merged.size() > 1 && merged.front().level == 0) {
    merged.erase(merged.begin());
  }
  std::vector<Octant<D>> out = complete(merged, root);

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
  return algo == SubtreeAlgo::kOld ? balance_subtree_old(s, k, root, stats)
                                   : balance_subtree_new(s, k, root, stats);
}

#define OCTBAL_INSTANTIATE(D)                                               \
  template std::vector<Octant<D>> balance_subtree_old<D>(                   \
      const std::vector<Octant<D>>&, int, const Octant<D>&,                 \
      SubtreeBalanceStats*);                                                \
  template std::vector<Octant<D>> balance_subtree_new<D>(                   \
      const std::vector<Octant<D>>&, int, const Octant<D>&,                 \
      SubtreeBalanceStats*);                                                \
  template std::vector<Octant<D>> balance_subtree<D>(                       \
      SubtreeAlgo, const std::vector<Octant<D>>&, int, const Octant<D>&,    \
      SubtreeBalanceStats*);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
