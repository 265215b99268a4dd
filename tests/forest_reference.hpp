#pragma once
/// \file forest_reference.hpp
/// \brief Test-only reference for Forest::refine and Forest::coarsen: the
/// serial sweeps, one rank after the other, with every created leaf logged
/// in sweep order.  The coarsen veto judges each family against a gathered
/// copy of the pre-sweep leaves, split by tree.
///
/// The library runs the rank bodies in parallel and reads the veto's
/// pre-sweep leaves in place; on a pure predicate it must reproduce the
/// per-rank arrays and the log below exactly (ForestMutation.* in
/// tests/test_forest.cpp).

#include <vector>

#include "core/balance_check.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "forest/forest.hpp"

namespace octbal::reference {

/// One sweep's outcome: each rank's new leaves, and the created leaves in
/// the order the sweep made them.
template <int D>
struct Mutation {
  std::vector<std::vector<TreeOct<D>>> local;
  std::vector<TreeOct<D>> created;
};

template <int D>
Mutation<D> refine(const Forest<D>& f,
                   const typename Forest<D>::RefinePred& pred,
                   bool recursive) {
  Mutation<D> m;
  for (int r = 0; r < f.num_ranks(); ++r) {
    std::vector<TreeOct<D>> next;
    // Depth-first replacement keeps the array sorted.
    std::vector<TreeOct<D>> stack;
    for (const auto& to : f.local(r)) {
      stack.push_back(to);
      while (!stack.empty()) {
        TreeOct<D> cur = stack.back();
        stack.pop_back();
        const bool split = cur.oct.level < max_level<D> && pred(cur) &&
                           (recursive || cur.oct.level == to.oct.level);
        if (!split) {
          next.push_back(cur);
          if (cur.oct.level > to.oct.level) m.created.push_back(cur);
          continue;
        }
        for (int c = num_children<D> - 1; c >= 0; --c) {
          stack.push_back(TreeOct<D>{cur.tree, child(cur.oct, c)});
        }
      }
    }
    m.local.push_back(std::move(next));
  }
  return m;
}

template <int D>
Mutation<D> coarsen(const Forest<D>& f,
                    const typename Forest<D>::RefinePred& pred,
                    int balance_k) {
  const Connectivity<D>& conn = f.connectivity();
  std::vector<std::vector<Octant<D>>> per_tree(conn.num_trees());
  for (const auto& to : f.gather()) per_tree[to.tree].push_back(to.oct);
  const auto collapse_safe = [&](std::int32_t tree, const Octant<D>& par) {
    for (const auto& off : balance_offsets<D>(balance_k)) {
      const auto nb = conn.neighbor(tree, par, off);
      if (!nb) continue;
      const auto& other = per_tree[nb->tree];
      const auto [lo, hi] = overlapping_range(other, nb->oct);
      for (std::size_t j = lo; j < hi; ++j) {
        if (other[j].level <= par.level + 1) continue;
        const int c = adjacency_codim(par, nb->xform.apply(other[j]));
        if (c >= 1 && c <= balance_k) return false;
      }
    }
    return true;
  };
  Mutation<D> m;
  const int nc = num_children<D>;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const auto& mine = f.local(r);
    std::vector<TreeOct<D>> next;
    std::size_t i = 0;
    while (i < mine.size()) {
      bool merged = false;
      if (mine[i].oct.level > 0 && child_id(mine[i].oct) == 0 &&
          i + nc <= mine.size()) {
        merged = true;
        for (int c = 0; c < nc; ++c) {
          if (mine[i + c].tree != mine[i].tree ||
              !(mine[i + c].oct == sibling(mine[i].oct, c)) ||
              !pred(mine[i + c])) {
            merged = false;
            break;
          }
        }
        if (merged && balance_k > 0 &&
            !collapse_safe(mine[i].tree, parent(mine[i].oct))) {
          merged = false;
        }
        if (merged) {
          const TreeOct<D> par{mine[i].tree, parent(mine[i].oct)};
          next.push_back(par);
          m.created.push_back(par);
          i += nc;
        }
      }
      if (!merged) {
        next.push_back(mine[i]);
        ++i;
      }
    }
    m.local.push_back(std::move(next));
  }
  return m;
}

}  // namespace octbal::reference
