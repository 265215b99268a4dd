#pragma once
/// \file span.hpp
/// \brief Run/span helpers and the two rebalance stages shared by the
/// balance pipelines: splitting a rank's sorted TreeOct array into per-tree
/// contiguous runs, clipping a re-balanced subtree back to a run's original
/// curve span (which is how ownership stays fixed across a balance — the
/// span's key interval is invariant under refinement, because a split
/// leaf's first child keeps its Morton key and its last child ends where
/// the parent ended), the sorted ancestor drop, and the stages built from
/// them:
///
///   * rebalance_runs — whole-run re-balance with exterior constraints
///     (the full pipeline's local balance and old-configuration phase 4,
///     and the delta pass's pre-pass);
///   * apply_groups   — per-leaf subtree reconstruction from seed groups
///     (the full pipeline's grouped phase 4 and every delta push round).
///
/// Used by forest/balance.cpp (full one-pass balance) and
/// forest/delta_balance.cpp (incremental re-balance).

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "core/balance_subtree.hpp"
#include "forest/forest.hpp"

namespace octbal::detail {

/// Runs of equal tree id within a sorted TreeOct array.
template <int D>
std::vector<std::pair<std::size_t, std::size_t>> tree_runs(
    const std::vector<TreeOct<D>>& a) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t i = 0;
  while (i < a.size()) {
    std::size_t j = i;
    while (j < a.size() && a[j].tree == a[i].tree) ++j;
    runs.push_back({i, j});
    i = j;
  }
  return runs;
}

/// Keep only the leaves of \p balanced whose Morton interval lies within
/// the closed span of the original run [first, last].
template <int D>
void clip_to_span(const std::vector<Octant<D>>& balanced,
                  const Octant<D>& first, const Octant<D>& last,
                  std::int32_t tree, std::vector<TreeOct<D>>& out) {
  const morton_t lo = morton_key(first);
  const morton_t hi =
      morton_key(last) + (morton_t{1} << (D * size_exp(last)));
  for (const auto& o : balanced) {
    const morton_t key = morton_key(o);
    if (key >= lo && key < hi) out.push_back(TreeOct<D>{tree, o});
  }
}

/// True iff \p a is \p b or one of its ancestors in the same tree.
template <int D>
bool contains(const TreeOct<D>& a, const TreeOct<D>& b) {
  return a.tree == b.tree && octbal::contains(a.oct, b.oct);
}

/// Remove duplicates and ancestors from the sorted array \p a, keeping the
/// finest (an Octant<D> or TreeOct<D> array).  In Morton preorder an
/// ancestor directly precedes its descendants, and contains() is
/// reflexive, so one in-place pass dropping every element that contains its
/// successor does it — no radix scratch, unlike the keyed linearize.
template <class T>
void drop_ancestors(std::vector<T>& a) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i + 1 < a.size() && contains(a[i], a[i + 1])) continue;
    a[w++] = a[i];
  }
  a.resize(w);
}

/// Sort a TreeOct array and remove ancestors (keep finest).
template <int D>
void linearize_treeocts(std::vector<TreeOct<D>>& a) {
  std::sort(a.begin(), a.end());
  drop_ancestors(a);
}

/// Exterior constraints per tree id: octants in that tree's frame (possibly
/// outside its root) that a whole-run re-balance must respect.
template <int D>
using TreeConstraints = std::map<std::int32_t, std::vector<Octant<D>>>;

/// An empty constraint list for every run of \p mine: rebalance_runs()
/// then re-balances every run.
template <int D>
TreeConstraints<D> every_run(const std::vector<TreeOct<D>>& mine) {
  TreeConstraints<D> aux;
  for (const auto& [i, j] : tree_runs(mine)) aux[mine[i].tree];
  return aux;
}

/// Re-balance every run of \p mine whose tree has an entry in \p aux: the
/// run merged with the entry's constraints (sorted here, in place), its
/// coarsest balanced refinement, clipped back to the run's span.  Runs of
/// trees without an entry are kept as they are.  Appends the leaves the
/// re-balance created to \p created, sorted, when it is given.
///
/// The run is already sorted and linear, so the balanced input is built by
/// merging it with the sorted constraints and dropping ancestors in one
/// in-place pass — the same array sort+linearize would produce, without the
/// radix scratch of the keyed linearize.
template <int D>
void rebalance_runs(std::vector<TreeOct<D>>& mine, TreeConstraints<D>& aux,
                    SubtreeAlgo algo, int k, SubtreeBalanceStats* stats,
                    std::vector<TreeOct<D>>* created = nullptr) {
  if (aux.empty()) return;
  const auto root = root_octant<D>();
  std::vector<TreeOct<D>> out;
  out.reserve(mine.size());
  for (const auto& [i, j] : tree_runs(mine)) {
    const std::int32_t tree = mine[i].tree;
    const auto it = aux.find(tree);
    if (it == aux.end()) {
      out.insert(out.end(), mine.begin() + i, mine.begin() + j);
      continue;
    }
    auto& extra = it->second;
    std::sort(extra.begin(), extra.end());
    std::vector<Octant<D>> input;
    input.reserve((j - i) + extra.size());
    std::size_t q = i, e = 0;
    while (q < j && e < extra.size()) {
      if (extra[e] < mine[q].oct) {
        input.push_back(extra[e++]);
      } else {
        input.push_back(mine[q++].oct);
      }
    }
    for (; q < j; ++q) input.push_back(mine[q].oct);
    input.insert(input.end(), extra.begin() + e, extra.end());
    if (!extra.empty()) drop_ancestors(input);
    const auto bal = balance_subtree(algo, input, k, root, stats);
    const std::size_t w0 = out.size();
    clip_to_span(bal, mine[i].oct, mine[j - 1].oct, tree, out);
    if (created) {
      std::set_difference(out.begin() + static_cast<std::ptrdiff_t>(w0),
                          out.end(), mine.begin() + i, mine.begin() + j,
                          std::back_inserter(*created));
    }
  }
  mine.swap(out);
}

/// Seed groups: per leaf (tree, q) of a rank, octants inside q whose
/// coarsest balanced completion within q replaces the leaf.
template <int D>
using LeafGroups = std::map<TreeOct<D>, std::vector<Octant<D>>>;

/// Replace every grouped leaf of \p mine by the balanced subtree its group
/// (sorted and linearized here, in place) reconstructs under it, and merge
/// the cells back with one ancestor drop.  A group that reconstructs just
/// its leaf changes nothing.  Appends the created cells to \p created,
/// sorted, when it is given.
template <int D>
void apply_groups(std::vector<TreeOct<D>>& mine, LeafGroups<D>& groups,
                  SubtreeAlgo algo, int k, SubtreeBalanceStats* stats,
                  std::vector<TreeOct<D>>* created = nullptr) {
  std::vector<TreeOct<D>> extra;
  for (auto& [q, octs] : groups) {
    std::sort(octs.begin(), octs.end());
    drop_ancestors(octs);
    const auto sub = balance_subtree(algo, octs, k, q.oct, stats);
    if (sub.size() == 1 && sub[0] == q.oct) continue;  // already balanced
    for (const auto& c : sub) extra.push_back(TreeOct<D>{q.tree, c});
  }
  if (extra.empty()) return;
  if (created) {
    created->insert(created->end(), extra.begin(), extra.end());
    std::sort(created->begin(), created->end());
  }
  mine.insert(mine.end(), extra.begin(), extra.end());
  linearize_treeocts(mine);
}

}  // namespace octbal::detail
