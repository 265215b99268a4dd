#pragma once
/// \file span.hpp
/// \brief Run/span helpers and the two rebalance stages shared by the
/// balance pipelines: splitting a rank's sorted TreeOct array into per-tree
/// contiguous runs, clipping a re-balanced subtree back to a run's original
/// curve span (which is how ownership stays fixed across a balance — the
/// span's key interval is invariant under refinement, because a split
/// leaf's first child keeps its Morton key and its last child ends where
/// the parent ended), the TreeOct linearize, and the stages built from
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
#include "core/linear.hpp"
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

/// Sort a TreeOct array and remove ancestors (keep finest).
template <int D>
void linearize_treeocts(std::vector<TreeOct<D>>& a) {
  std::sort(a.begin(), a.end());
  drop_ancestors(a, [](const TreeOct<D>& x, const TreeOct<D>& y) {
    return x.tree == y.tree && contains(x.oct, y.oct);
  });
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
/// run merged with the entry's constraints, its coarsest balanced
/// refinement, clipped back to the run's span.  Runs of trees without an
/// entry are kept as they are.  Appends the leaves the re-balance created
/// to \p created, sorted, when it is given.
///
/// The run and its constraints are packed once.  The run is already sorted
/// and linear, so the balanced input is built by merging it with the sorted
/// constraints and dropping ancestors in one in-place pass — the same array
/// sort+linearize would produce, without the radix scratch of the keyed
/// linearize.  The kept leaves, found on key intervals, are unpacked once.
template <int D>
void rebalance_runs(std::vector<TreeOct<D>>& mine,
                    const TreeConstraints<D>& aux, SubtreeAlgo algo, int k,
                    SubtreeBalanceStats* stats,
                    std::vector<TreeOct<D>>* created = nullptr) {
  if (aux.empty()) return;
  const okey_t root = key_of(root_octant<D>());
  std::vector<TreeOct<D>> out;
  out.reserve(mine.size());
  std::vector<okey_t> run, input;
  for (const auto& [i, j] : tree_runs(mine)) {
    const std::int32_t tree = mine[i].tree;
    const auto it = aux.find(tree);
    if (it == aux.end()) {
      out.insert(out.end(), mine.begin() + i, mine.begin() + j);
      continue;
    }
    run.clear();
    for (std::size_t q = i; q < j; ++q) run.push_back(key_of(mine[q].oct));
    std::vector<okey_t> extra = octants_to_keys(it->second);
    std::sort(extra.begin(), extra.end(), key_less);
    input.clear();
    std::merge(run.begin(), run.end(), extra.begin(), extra.end(),
               std::back_inserter(input), key_less);
    if (!extra.empty()) drop_ancestors(input, key_contains);
    const auto bal = balance_subtree<D>(algo, input, k, root, stats);
    // The run's span is invariant under refinement: keep the leaves whose
    // anchor lies in [begin of the first leaf, end of the last).
    const morton_t lo = key_interval_begin<D>(run.front());
    const morton_t hi = key_interval_end<D>(run.back());
    auto b = std::partition_point(bal.begin(), bal.end(), [&](okey_t x) {
      return key_interval_begin<D>(x) < lo;
    });
    std::size_t q = 0;  // the run's leaves not yet passed, for created
    for (; b != bal.end() && key_interval_begin<D>(*b) < hi; ++b) {
      out.push_back(TreeOct<D>{tree, key_oct<D>(*b)});
      if (!created) continue;
      while (q < run.size() && key_less(run[q], *b)) ++q;
      if (q == run.size() || run[q] != *b) created->push_back(out.back());
    }
  }
  mine.swap(out);
}

/// Seed groups: per leaf (tree, q) of a rank, octants inside q whose
/// coarsest balanced completion within q replaces the leaf.
template <int D>
using LeafGroups = std::map<TreeOct<D>, std::vector<Octant<D>>>;

/// Replace every grouped leaf of \p mine by the balanced subtree its group
/// (packed, sorted and linearized here) reconstructs under it, and merge
/// the cells back with one ancestor drop.  A group that reconstructs just
/// its leaf changes nothing.  Appends the created cells to \p created,
/// sorted, when it is given.
template <int D>
void apply_groups(std::vector<TreeOct<D>>& mine, const LeafGroups<D>& groups,
                  SubtreeAlgo algo, int k, SubtreeBalanceStats* stats,
                  std::vector<TreeOct<D>>* created = nullptr) {
  std::vector<TreeOct<D>> extra;
  for (const auto& [q, octs] : groups) {
    std::vector<okey_t> seeds = octants_to_keys(octs);
    std::sort(seeds.begin(), seeds.end(), key_less);
    drop_ancestors(seeds, key_contains);
    const okey_t leaf = key_of(q.oct);
    const auto sub = balance_subtree<D>(algo, seeds, k, leaf, stats);
    if (sub.size() == 1 && sub[0] == leaf) continue;  // already balanced
    for (const okey_t c : sub) {
      extra.push_back(TreeOct<D>{q.tree, key_oct<D>(c)});
    }
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
