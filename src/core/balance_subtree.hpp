#pragma once
/// \file balance_subtree.hpp
/// \brief Serial subtree balance: the paper's old (Figure 6) and new
/// (Figure 7) algorithms, Section III.
///
/// Both take a sorted linear octant array S and a (sub)tree root and
/// return the coarsest complete k-balanced linear octree of that root that
/// keeps every input octant as a leaf (or refines it when inputs conflict).
/// Inputs outside the root are exterior constraints and may lie anywhere in
/// its halo, the root grown by one root side in each direction.  Both also
/// work on *incomplete* input sets, which is what the seed-octant
/// reconstruction of Section IV relies on.  The kernels run on packed keys
/// (S in key_less order); the Octant<D> overloads pack once and unpack once.
///
/// Both throw std::invalid_argument, naming the function, when k is outside
/// [1, D], the root is not a valid octant, an input is not extended-valid
/// (level outside [0, max_level] or anchor not a multiple of its side) or
/// lies outside the root's halo, or S is not sorted and linear.
///
/// The old algorithm inserts, for every octant, its whole family and coarse
/// neighborhood into a hash table and linearizes the union.  The new one
/// first compresses the input with Reduce, inserts only 0-sibling family
/// representatives, tags precluded octants instead of carrying them, and
/// regenerates the final octree with Complete — cutting hash queries by
/// roughly 3x and the postprocessing sort by 2^d.

#include <cstdint>
#include <vector>

#include "core/key.hpp"
#include "core/octant.hpp"

namespace octbal {

/// Operation counts for the claims benchmarked in bench/bench_subtree.
struct SubtreeBalanceStats {
  std::uint64_t hash_queries = 0;    ///< hash-table insert/contains calls
  std::uint64_t hash_probes = 0;     ///< linear-probe steps
  std::uint64_t hash_rehash_probes = 0;  ///< probe steps spent growing
  std::uint64_t binary_searches = 0; ///< searches of the (reduced) input
  std::uint64_t sorted_octants = 0;  ///< size of the postprocessing sort
  std::uint64_t output_octants = 0;  ///< final octree size

  SubtreeBalanceStats& operator+=(const SubtreeBalanceStats& o) {
    hash_queries += o.hash_queries;
    hash_probes += o.hash_probes;
    hash_rehash_probes += o.hash_rehash_probes;
    binary_searches += o.binary_searches;
    sorted_octants += o.sorted_octants;
    output_octants += o.output_octants;
    return *this;
  }
};

/// Old subtree balance (Figure 6): family + coarse-neighborhood insertion
/// into a hash table, then merge, sort and Linearize.
template <int D>
std::vector<okey_t> balance_subtree_old(KeySpan s, int k, okey_t root,
                                        SubtreeBalanceStats* stats = nullptr);

/// New subtree balance (Figure 7): Reduce, sparse 0-sibling insertion with
/// preclusion tagging, then merge, sort and Complete.
template <int D>
std::vector<okey_t> balance_subtree_new(KeySpan s, int k, okey_t root,
                                        SubtreeBalanceStats* stats = nullptr);

/// Algorithm selector used by the distributed pipeline and the benchmarks.
enum class SubtreeAlgo { kOld, kNew };

template <int D>
std::vector<okey_t> balance_subtree(SubtreeAlgo algo, KeySpan s, int k,
                                    okey_t root,
                                    SubtreeBalanceStats* stats = nullptr) {
  return algo == SubtreeAlgo::kOld ? balance_subtree_old<D>(s, k, root, stats)
                                   : balance_subtree_new<D>(s, k, root, stats);
}

/// The Octant<D> adapters pack once and unpack once.
template <int D>
std::vector<Octant<D>> balance_subtree(SubtreeAlgo algo,
                                       const std::vector<Octant<D>>& s, int k,
                                       const Octant<D>& root,
                                       SubtreeBalanceStats* stats = nullptr);

template <int D>
std::vector<Octant<D>> balance_subtree_old(
    const std::vector<Octant<D>>& s, int k, const Octant<D>& root,
    SubtreeBalanceStats* stats = nullptr) {
  return balance_subtree(SubtreeAlgo::kOld, s, k, root, stats);
}

template <int D>
std::vector<Octant<D>> balance_subtree_new(
    const std::vector<Octant<D>>& s, int k, const Octant<D>& root,
    SubtreeBalanceStats* stats = nullptr) {
  return balance_subtree(SubtreeAlgo::kNew, s, k, root, stats);
}

}  // namespace octbal
