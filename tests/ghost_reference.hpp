#pragma once
/// \file ghost_reference.hpp
/// \brief Test-only reference ghost layer, by definition: every leaf is a
/// candidate for every other rank owning part of one of its balance-offset
/// neighbor pieces (Connectivity::neighbor for every piece, one
/// Forest::owners_of search per piece), and the receiver keeps a candidate
/// when the connectivity-walk filter below finds a leaf of its own sharing
/// a boundary object of codimension in [1, k].  The filter is the one the
/// library ran before its key-native check: a per-tree std::map copy of the
/// rank's leaves and one neighbor lookup per offset.
///
/// The traffic is that of the exact relation: one message per non-empty
/// (owner, receiver) pair of per_rank, carrying one wire record per entry.
/// build_ghost_layer decides adjacency on the sender, so it must reproduce
/// per_rank and this traffic byte for byte
/// (tests/test_ghost_differential.cpp).

#include <map>
#include <set>
#include <vector>

#include "core/balance_check.hpp"
#include "core/linear.hpp"
#include "core/neighborhood.hpp"
#include "forest/ghost.hpp"

namespace octbal::reference {

/// Exact adjacency test of a candidate ghost \p g against any leaf of
/// \p mine (per-tree views), across tree boundaries.
template <int D>
bool adjacent_to_any(const Connectivity<D>& conn, const TreeOct<D>& g, int k,
                     const std::map<int, std::vector<Octant<D>>>& mine) {
  for (const auto& off : balance_offsets<D>(k)) {
    const auto nb = conn.neighbor(g.tree, g.oct, off);
    if (!nb) continue;
    const auto it = mine.find(nb->tree);
    if (it == mine.end()) continue;
    const auto [lo, hi] = overlapping_range(it->second, nb->oct);
    for (std::size_t j = lo; j < hi; ++j) {
      const Octant<D> m = nb->xform.apply(it->second[j]);
      const int c = adjacency_codim(g.oct, m);
      if (c >= 1 && c <= k) return true;
    }
  }
  return false;
}

/// One candidate on the wire: the layout the library ships.
template <int D>
struct WireGhost {
  std::int32_t tree;
  std::int32_t level;
  std::array<coord_t, D> x;
};

template <int D>
struct GhostResult {
  std::vector<std::vector<typename GhostLayer<D>::Entry>> per_rank;
  CommStats traffic;  ///< one message per non-empty (owner, receiver) pair
};

template <int D>
GhostResult<D> ghost_layer(const Forest<D>& f, int k) {
  const int P = f.num_ranks();
  const auto& conn = f.connectivity();
  std::vector<std::vector<std::vector<TreeOct<D>>>> send(
      P, std::vector<std::vector<TreeOct<D>>>(P));
  for (int r = 0; r < P; ++r) {
    for (const auto& to : f.local(r)) {
      std::set<int> dests;
      for (const auto& off : balance_offsets<D>(k)) {
        const auto nb = conn.neighbor(to.tree, to.oct, off);
        if (!nb) continue;
        const TreeOct<D> piece{nb->tree, nb->oct};
        const auto [a, b] =
            f.owners_of(position_of(piece), end_position_of(piece));
        for (int q = a; q <= b; ++q) {
          if (q != r && f.marker(q) != f.marker(q + 1)) dests.insert(q);
        }
      }
      for (const int q : dests) send[r][q].push_back(to);
    }
  }
  GhostResult<D> out;
  out.per_rank.resize(P);
  for (int r = 0; r < P; ++r) {
    std::map<int, std::vector<Octant<D>>> mine;
    for (const auto& to : f.local(r)) mine[to.tree].push_back(to.oct);
    for (int s = 0; s < P; ++s) {
      std::size_t kept = 0;
      for (const auto& g : send[s][r]) {
        if (adjacent_to_any(conn, g, k, mine)) {
          out.per_rank[r].push_back(typename GhostLayer<D>::Entry{g, s});
          ++kept;
        }
      }
      if (kept == 0) continue;
      ++out.traffic.messages;
      out.traffic.bytes += kept * sizeof(WireGhost<D>);
    }
    std::sort(out.per_rank[r].begin(), out.per_rank[r].end(),
              [](const auto& a, const auto& b) { return a.oct < b.oct; });
  }
  return out;
}

}  // namespace octbal::reference
