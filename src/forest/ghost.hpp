#pragma once
/// \file ghost.hpp
/// \brief Ghost (halo) layer construction: for every rank, the remote
/// leaves adjacent to its partition across the chosen balance condition's
/// boundary objects.
///
/// Numerical codes built on 2:1-balanced forests need the neighboring
/// remote elements to assemble operators near partition boundaries (the
/// paper's motivation for balance in the first place).  Ghost exchange
/// reuses the halo-piece kernel and owner walk of the balance Query phase
/// (forest/halo.hpp).  The sender decides adjacency exactly from the
/// owners' partition markers, so one exchange builds the layer: adjacency
/// is symmetric, every rank receives from the ranks it sends to, and the
/// receiver keeps what arrives (DESIGN.md §2.20).

#include "forest/forest.hpp"

namespace octbal {

/// For each rank, the sorted list of remote leaves (with their owner rank)
/// that share a boundary object of codimension <= k with one of the rank's
/// own leaves.  Deterministic; self-entries never appear.
template <int D>
struct GhostLayer {
  struct Entry {
    TreeOct<D> oct;
    int owner = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<std::vector<Entry>> per_rank;
  CommStats traffic;          ///< the exchange: all the build sends
  OwnerScanStats owner_scan;  ///< sender-side windowed owner resolution
};

/// Build the k-ghost layer of \p f.  Throws std::invalid_argument when
/// \p k lies outside [1, D].
template <int D>
GhostLayer<D> build_ghost_layer(const Forest<D>& f, int k, SimComm& comm);

}  // namespace octbal
