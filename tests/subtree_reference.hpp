#pragma once
/// \file subtree_reference.hpp
/// \brief Test-only reference for the serial subtree balance: the old
/// (Figure 6) and new (Figure 7) algorithms on Octant<D> arrays, as they
/// ran before the kernels moved onto packed keys.
///
/// The work queues, the hash set (driven through key_of, so its probe
/// sequences are the library's) and every counter follow the same order as
/// the key kernels in core/balance_subtree.cpp, which must reproduce the
/// output and all six SubtreeBalanceStats fields exactly.  The rest —
/// the coarse neighborhood clipped to the halo, the exterior split, the
/// preclusion search, the Octant<D> Reduce/Linearize/Complete adapters —
/// works on coordinates.  The reference checks only that the input is
/// sorted and linear.  It exists so the SubtreeDifferential tests in
/// test_balance_subtree.cpp have an oracle.

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/balance_subtree.hpp"
#include "core/key.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "core/octant_hash.hpp"
#include "core/reduce.hpp"
#include "core/sort.hpp"

namespace octbal::reference {

/// Coarse neighborhood of \p o clipped to the halo of \p root: the root
/// enlarged by one root side length per direction.
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

/// In the reduced sorted array \p r, the index of the element t with
/// t <= q in the preclusion order, or npos.  The root neither precludes
/// nor is precluded.
template <int D>
std::size_t find_precluding_le(const std::vector<Octant<D>>& r,
                               const Octant<D>& q) {
  const Octant<D> s = zero_sibling(q);
  auto it = std::upper_bound(r.begin(), r.end(), s);
  if (it == r.begin()) return npos;
  --it;
  const bool le = it->level == 0 || q.level == 0 ? *it == q
                                                 : precludes_le(*it, q);
  return le ? static_cast<std::size_t>(it - r.begin()) : npos;
}

template <int D>
void require_linear(const std::vector<Octant<D>>& s) {
  if (!is_linear(s)) {
    throw std::invalid_argument("reference: input is not linear");
  }
}

template <int D>
void drop_outside(std::vector<Octant<D>>& a, const Octant<D>& root) {
  std::erase_if(a, [&](const Octant<D>& o) { return !contains(root, o); });
}

inline void finish(SubtreeBalanceStats local, const HashStats& hs, std::size_t out,
            SubtreeBalanceStats* stats) {
  local.hash_queries = hs.queries;
  local.hash_probes = hs.probes;
  local.hash_rehash_probes = hs.rehash_probes;
  local.output_octants = out;
  if (stats) *stats += local;
}

template <int D>
std::vector<Octant<D>> balance_subtree_old(const std::vector<Octant<D>>& s,
                                           int k, const Octant<D>& root,
                                           SubtreeBalanceStats* stats) {
  require_linear(s);
  SubtreeBalanceStats local;
  HashStats hs;
  OctantHashSet<D> w(s.size() * 4 + 16, &hs);
  std::deque<Octant<D>> work(s.begin(), s.end());
  std::vector<Octant<D>> nbhd;

  const auto try_add = [&](const Octant<D>& q) {
    if (w.contains(key_of(q))) return;
    ++local.binary_searches;
    if (binary_find(s, q) != npos) return;
    w.insert(key_of(q));
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
  std::vector<okey_t> created;
  w.collect(created);
  for (const okey_t c : created) merged.push_back(key_oct<D>(c));
  local.sorted_octants = merged.size();
  linearize(merged);
  drop_outside(merged, root);
  std::vector<Octant<D>> out = complete(merged, root);
  finish(local, hs, out.size(), stats);
  return out;
}

template <int D>
std::vector<Octant<D>> balance_subtree_new(const std::vector<Octant<D>>& s,
                                           int k, const Octant<D>& root,
                                           SubtreeBalanceStats* stats) {
  require_linear(s);
  SubtreeBalanceStats local;
  std::vector<Octant<D>> interior, exterior;
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
  OctantHashSet<D> w(s.size() * 2 + 16, &hs);
  std::deque<Octant<D>> work(r.begin(), r.end());
  std::vector<Octant<D>> nbhd;

  while (!work.empty()) {
    const Octant<D> o = work.front();
    work.pop_front();
    nbhd.clear();
    coarse_neighborhood_halo(o, k, root, nbhd);
    for (const Octant<D>& n : nbhd) {
      const Octant<D> c = zero_sibling(n);
      if (w.contains(key_of(c))) continue;
      ++local.binary_searches;
      const std::size_t idx = reference::find_precluding_le(r, c);
      const bool in_r = idx != npos && r[idx] == c;
      if (!in_r) {
        if (idx != npos) r_prec[idx] = 1;
        w.insert(key_of(c));
        work.push_back(c);
      }
      if (c.level > 0 && o.level > 0 && precludes_lt(c, o)) {
        if (in_r) {
          r_prec[idx] = 1;
        } else {
          w.tag(key_of(c));
        }
      }
    }
  }

  std::vector<Octant<D>> merged;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!r_prec[i]) merged.push_back(r[i]);
  }
  std::vector<okey_t> created;
  w.collect(created, /*skip_tagged=*/true);
  for (const okey_t c : created) merged.push_back(key_oct<D>(c));
  local.sorted_octants = merged.size();
  sort_octants(merged);
  merged = reduce(merged);
  drop_outside(merged, root);
  if (merged.size() > 1 && merged.front().level == 0) {
    merged.erase(merged.begin());
  }
  std::vector<Octant<D>> out = complete(merged, root);
  finish(local, hs, out.size(), stats);
  return out;
}

template <int D>
std::vector<Octant<D>> balance_subtree(SubtreeAlgo algo,
                                       const std::vector<Octant<D>>& s, int k,
                                       const Octant<D>& root,
                                       SubtreeBalanceStats* stats) {
  return algo == SubtreeAlgo::kOld
             ? reference::balance_subtree_old(s, k, root, stats)
             : reference::balance_subtree_new(s, k, root, stats);
}

}  // namespace octbal::reference
