#include "forest/forest.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/balance_check.hpp"
#include "core/balance_subtree.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"

namespace octbal {
namespace {

/// \p nranks, checked before it sizes the per-rank arrays.
int checked_ranks(int nranks) {
  if (nranks < 1) {
    throw std::invalid_argument("Forest: nranks = " + std::to_string(nranks) +
                                " must be >= 1");
  }
  return nranks;
}

/// Split a gathered forest into per-tree octant arrays.
template <int D>
std::vector<std::vector<Octant<D>>> split_by_tree(
    const std::vector<TreeOct<D>>& leaves, int ntrees) {
  std::vector<std::vector<Octant<D>>> per_tree(ntrees);
  for (const auto& to : leaves) per_tree[to.tree].push_back(to.oct);
  return per_tree;
}

}  // namespace

template <int D>
Forest<D>::Forest(Connectivity<D> conn, int nranks, int level)
    : conn_(std::move(conn)), local_(checked_ranks(nranks)) {
  if (level < 0 || level > max_level<D>) {
    throw std::invalid_argument("Forest: level = " + std::to_string(level) +
                                " outside [0, " +
                                std::to_string(max_level<D>) + "]");
  }
  std::vector<TreeOct<D>> all;
  const auto root = root_octant<D>();
  std::vector<Octant<D>> per_tree{root};
  for (int l = 0; l < level; ++l) {
    std::vector<Octant<D>> next;
    next.reserve(per_tree.size() * num_children<D>);
    for (const auto& o : per_tree)
      for (int c = 0; c < num_children<D>; ++c) next.push_back(child(o, c));
    per_tree.swap(next);
  }
  std::sort(per_tree.begin(), per_tree.end());
  all.reserve(static_cast<std::size_t>(conn_.num_trees()) * per_tree.size());
  for (int t = 0; t < conn_.num_trees(); ++t) {
    for (const auto& o : per_tree)
      all.push_back(TreeOct<D>{static_cast<std::int32_t>(t), o});
  }
  split_evenly(std::move(all));
}

template <int D>
Forest<D>::Forest(Connectivity<D> conn, int nranks,
                  std::vector<TreeOct<D>> leaves)
    : conn_(std::move(conn)), local_(checked_ranks(nranks)) {
  std::sort(leaves.begin(), leaves.end());
  split_evenly(std::move(leaves));
}

template <int D>
void Forest<D>::split_evenly(std::vector<TreeOct<D>> all) {
  const std::size_t p = local_.size(), n = all.size();
  auto it = all.begin();
  for (std::size_t r = 0; r < p; ++r) {
    const auto count =
        static_cast<std::ptrdiff_t>(n / p + (r < n % p ? 1 : 0));
    local_[r].assign(it, it + count);
    it += count;
  }
  refresh_markers();
}

template <int D>
void Forest<D>::refresh_markers() {
  const int p = num_ranks();
  marks_.assign(p + 1, GlobalPos{});
  marks_[p] = GlobalPos{conn_.num_trees(), 0};
  for (int r = p - 1; r >= 0; --r) {
    if (local_[r].empty()) {
      marks_[r] = marks_[r + 1];
    } else {
      marks_[r] = position_of(local_[r].front());
    }
  }
  // The first marker covers the whole curve from the very beginning.
  marks_[0] = GlobalPos{0, morton_key(root_octant<D>())};
  account_memory();
}

template <int D>
void Forest<D>::account_memory() {
  const int p = num_ranks();
  leaf_mem_.resize(p);
  for (int r = 0; r < p; ++r) {
    leaf_mem_[r].set_slot(r, obs::MemTag::kForestLeaves,
                          local_[r].size() * sizeof(TreeOct<D>));
  }
  dirty_mem_.set(obs::MemTag::kDirtyLog, dirty_.size() * sizeof(TreeOct<D>));
}

template <int D>
std::pair<int, int> Forest<D>::owners_of(const GlobalPos& lo,
                                         const GlobalPos& hi) const {
  const int p = num_ranks();
  // First rank whose range [marks_[r], marks_[r+1]) intersects [lo, hi).
  auto it = std::upper_bound(marks_.begin(), marks_.end(), lo);
  int first = static_cast<int>(it - marks_.begin()) - 1;
  if (first < 0) first = 0;
  auto jt = std::lower_bound(marks_.begin(), marks_.end(), hi);
  int last = static_cast<int>(jt - marks_.begin()) - 1;
  if (last >= p) last = p - 1;
  if (last < first) return {1, 0};
  return {first, last};
}

template <int D>
void Forest<D>::refine(const RefinePred& pred, bool recursive) {
  for (auto& mine : local_) {
    std::vector<TreeOct<D>> next;
    next.reserve(mine.size());
    // Depth-first replacement keeps the array sorted.
    std::vector<TreeOct<D>> stack;
    for (const auto& to : mine) {
      stack.push_back(to);
      while (!stack.empty()) {
        TreeOct<D> cur = stack.back();
        stack.pop_back();
        const bool split = cur.oct.level < max_level<D> && pred(cur) &&
                           (recursive || cur.oct.level == to.oct.level);
        if (!split) {
          next.push_back(cur);
          // Dirty log: every leaf this sweep created (not the survivors).
          if (cur.oct.level > to.oct.level) dirty_.push_back(cur);
          continue;
        }
        for (int c = num_children<D> - 1; c >= 0; --c) {
          stack.push_back(TreeOct<D>{cur.tree, child(cur.oct, c)});
        }
      }
    }
    mine.swap(next);
  }
  refresh_markers();
}

template <int D>
void Forest<D>::coarsen(const RefinePred& pred, int balance_k) {
  if (balance_k < 0 || balance_k > D) {
    throw std::invalid_argument("Forest::coarsen: balance_k = " +
                                std::to_string(balance_k) +
                                " is outside [0, " + std::to_string(D) + "]");
  }
  // 2:1-safety veto context: the *pre-sweep* global leaf set, split by
  // tree.  Judging every candidate family against this snapshot (rather
  // than the evolving arrays) makes the veto order-independent: two
  // adjacent families that each pass cannot jointly create a violation,
  // because a violation between their parents (levels L and M >= L + 2)
  // requires a pre-sweep child of the finer family at level M + 1 >= L + 2
  // adjacent to the coarser parent — which vetoes the coarser collapse.
  std::vector<std::vector<Octant<D>>> per_tree;
  if (balance_k > 0) {
    per_tree = split_by_tree(gather(), conn_.num_trees());
  }
  // Safe iff no pre-sweep leaf overlapping the parent's insulation layer
  // is two or more levels finer than the parent (the forest_find_violation
  // walk, applied to the would-be parent).
  const auto collapse_safe = [&](std::int32_t tree, const Octant<D>& par) {
    for (const auto& off : balance_offsets<D>(balance_k)) {
      const auto nb = conn_.neighbor(tree, par, off);
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
  for (auto& mine : local_) {
    std::vector<TreeOct<D>> next;
    next.reserve(mine.size());
    std::size_t i = 0;
    while (i < mine.size()) {
      bool merged = false;
      const int nc = num_children<D>;
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
          dirty_.push_back(par);
          i += nc;
        }
      }
      if (!merged) {
        next.push_back(mine[i]);
        ++i;
      }
    }
    mine.swap(next);
  }
  refresh_markers();
}

template <int D>
void Forest<D>::partition_uniform(SimComm* comm) {
  partition_weighted([](const TreeOct<D>&) { return 1; }, comm);
}

template <int D>
std::uint64_t Forest<D>::global_num_octants() const {
  std::uint64_t n = 0;
  for (const auto& v : local_) n += v.size();
  return n;
}

template <int D>
std::vector<TreeOct<D>> Forest<D>::gather() const {
  std::vector<TreeOct<D>> all;
  all.reserve(global_num_octants());
  for (const auto& v : local_) all.insert(all.end(), v.begin(), v.end());
  return all;
}

template <int D>
bool Forest<D>::is_valid() const {
  const auto all = gather();
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    if (!(all[i] < all[i + 1])) return false;
  }
  // Ranks hold their marker ranges.
  for (int r = 0; r < num_ranks(); ++r) {
    for (const auto& to : local_[r]) {
      const GlobalPos pos = position_of(to);
      if (pos < marks_[r]) return false;
      if (!(pos < marks_[r + 1])) return false;
    }
  }
  // Each tree is a complete linear octree.
  std::size_t i = 0;
  for (int t = 0; t < conn_.num_trees(); ++t) {
    std::vector<Octant<D>> tree;
    while (i < all.size() && all[i].tree == t) tree.push_back(all[i++].oct);
    if (tree.empty()) return false;
    if (!is_complete(tree, root_octant<D>())) return false;
  }
  return i == all.size();
}

template <int D>
ForestStats forest_stats(const Forest<D>& f) {
  ForestStats s;
  s.leaves = f.global_num_octants();
  s.min_per_rank = static_cast<std::size_t>(-1);
  s.min_level = max_level<D>;
  std::uint64_t level_sum = 0;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const auto& mine = f.local(r);
    s.min_per_rank = std::min(s.min_per_rank, mine.size());
    s.max_per_rank = std::max(s.max_per_rank, mine.size());
    for (const auto& to : mine) {
      s.min_level = std::min(s.min_level, int(to.oct.level));
      s.max_level_seen = std::max(s.max_level_seen, int(to.oct.level));
      level_sum += static_cast<std::uint64_t>(to.oct.level);
    }
  }
  if (s.leaves > 0) {
    s.avg_level = static_cast<double>(level_sum) / static_cast<double>(s.leaves);
  } else {
    s.min_level = 0;
  }
  return s;
}

template <int D>
std::uint64_t forest_checksum(const Forest<D>& f) {
  // Order-dependent chained mix over the global SFC order, which is
  // partition independent by construction.
  std::uint64_t h = 0x2012u;  // IPDPS vintage
  const auto mix = [&](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (int r = 0; r < f.num_ranks(); ++r) {
    for (const auto& to : f.local(r)) {
      mix(static_cast<std::uint64_t>(to.tree));
      mix(morton_key(to.oct));
      mix(static_cast<std::uint64_t>(to.oct.level));
    }
  }
  return h;
}

template <int D>
bool forest_find_violation(const std::vector<TreeOct<D>>& leaves,
                           const Connectivity<D>& conn, int k,
                           BalanceViolation<D>* out) {
  require_balance_k<D>(k, "forest_find_violation");
  const auto per_tree = split_by_tree(leaves, conn.num_trees());
  for (const auto& to : leaves) {
    for (const auto& off : balance_offsets<D>(k)) {
      const auto nb = conn.neighbor(to.tree, to.oct, off);
      if (!nb) continue;
      const auto& other = per_tree[nb->tree];
      const auto [lo, hi] = overlapping_range(other, nb->oct);
      for (std::size_t j = lo; j < hi; ++j) {
        if (other[j].level <= to.oct.level + 1) continue;
        const Octant<D> m = nb->xform.apply(other[j]);
        const int c = adjacency_codim(to.oct, m);
        if (c >= 1 && c <= k) {
          if (out) {
            out->coarse = to;
            out->fine = TreeOct<D>{nb->tree, other[j]};
            out->mapped = m;
            out->codim = c;
          }
          return false;
        }
      }
    }
  }
  return true;
}

template <int D>
bool forest_is_balanced(const std::vector<TreeOct<D>>& leaves,
                        const Connectivity<D>& conn, int k) {
  return forest_find_violation<D>(leaves, conn, k, nullptr);
}

template <int D>
std::vector<TreeOct<D>> forest_balance_serial(std::vector<TreeOct<D>> leaves,
                                              const Connectivity<D>& conn,
                                              int k) {
  require_balance_k<D>(k, "forest_balance_serial");
  const int nt = conn.num_trees();
  auto per_tree = split_by_tree(leaves, nt);
  const auto root = root_octant<D>();

  // Enumerate neighbor trees (with their frame transforms) once per tree.
  std::vector<std::vector<std::pair<int, FrameTransform<D>>>> nbt(nt);
  for (int t = 0; t < nt; ++t) {
    for (const auto& off : full_offsets<D>()) {
      // Step across the tree boundary with a root-size probe.
      const auto nb = conn.neighbor(t, root, off);
      if (!nb) continue;
      nbt[t].push_back({nb->tree, nb->xform});
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::vector<Octant<D>>> next(nt);
    for (int t = 0; t < nt; ++t) {
      std::vector<Octant<D>> input = per_tree[t];
      for (const auto& [u, xf] : nbt[t]) {
        for (const auto& o : per_tree[u]) {
          input.push_back(xf.apply(o));
        }
      }
      std::sort(input.begin(), input.end());
      linearize(input);
      next[t] = balance_subtree_new(input, k, root);
      if (next[t] != per_tree[t]) changed = true;
    }
    per_tree.swap(next);
  }

  std::vector<TreeOct<D>> out;
  for (int t = 0; t < nt; ++t) {
    for (const auto& o : per_tree[t])
      out.push_back(TreeOct<D>{static_cast<std::int32_t>(t), o});
  }
  return out;
}

#define OCTBAL_INSTANTIATE(D)                                              \
  template class Forest<D>;                                                \
  template ForestStats forest_stats<D>(const Forest<D>&);                  \
  template std::uint64_t forest_checksum<D>(const Forest<D>&);             \
  template bool forest_is_balanced<D>(const std::vector<TreeOct<D>>&,      \
                                      const Connectivity<D>&, int);        \
  template bool forest_find_violation<D>(const std::vector<TreeOct<D>>&,   \
                                         const Connectivity<D>&, int,      \
                                         BalanceViolation<D>*);            \
  template std::vector<TreeOct<D>> forest_balance_serial<D>(               \
      std::vector<TreeOct<D>>, const Connectivity<D>&, int);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
