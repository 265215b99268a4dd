#pragma once
/// \file balance_subtree.hpp
/// \brief Serial subtree balance: the paper's old (Figure 6) and new
/// (Figure 7) algorithms, Section III.
///
/// Both take a sorted linear octant array S inside a (sub)tree root and
/// return the coarsest complete k-balanced linear octree of that root that
/// keeps every input octant as a leaf (or refines it when inputs conflict).
/// Both also work on *incomplete* input sets, which is what the seed-octant
/// reconstruction of Section IV relies on.  Both throw std::invalid_argument
/// when S is not sorted and linear or k is outside [1, D].
///
/// The old algorithm inserts, for every octant, its whole family and coarse
/// neighborhood into a hash table and linearizes the union.  The new one
/// first compresses the input with Reduce, inserts only 0-sibling family
/// representatives, tags precluded octants instead of carrying them, and
/// regenerates the final octree with Complete — cutting hash queries by
/// roughly 3x and the postprocessing sort by 2^d.

#include <cstdint>
#include <vector>

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
std::vector<Octant<D>> balance_subtree_old(const std::vector<Octant<D>>& s,
                                           int k, const Octant<D>& root,
                                           SubtreeBalanceStats* stats = nullptr);

/// New subtree balance (Figure 7): Reduce, sparse 0-sibling insertion with
/// preclusion tagging, then merge, sort and Complete.
template <int D>
std::vector<Octant<D>> balance_subtree_new(const std::vector<Octant<D>>& s,
                                           int k, const Octant<D>& root,
                                           SubtreeBalanceStats* stats = nullptr);

/// Algorithm selector used by the distributed pipeline and the benchmarks.
enum class SubtreeAlgo { kOld, kNew };

template <int D>
std::vector<Octant<D>> balance_subtree(SubtreeAlgo algo,
                                       const std::vector<Octant<D>>& s, int k,
                                       const Octant<D>& root,
                                       SubtreeBalanceStats* stats = nullptr);

}  // namespace octbal
