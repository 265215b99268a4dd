#pragma once
/// \file ghost.hpp
/// \brief Ghost (halo) layer construction: for every rank, the remote
/// leaves adjacent to its partition across the chosen balance condition's
/// boundary objects.
///
/// Numerical codes built on 2:1-balanced forests need the neighboring
/// remote elements to assemble operators near partition boundaries (the
/// paper's motivation for balance in the first place).  Ghost exchange
/// reuses the same machinery as the balance Query phase: the halo-piece
/// kernel and owner walk of forest/halo.hpp, followed by a Notify-reversed
/// exchange and an exact receiver check by key range (DESIGN.md §2.20).

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
  CommStats traffic;         ///< candidate-exchange volume
  CommStats notify_traffic;  ///< the pattern-reversal step's own volume
  OwnerScanStats owner_scan;  ///< sender-side windowed owner resolution
  /// Total traffic of building the layer (exchange + notify) — what a
  /// report should charge the ghost build with.
  CommStats total_traffic() const {
    CommStats t = traffic;
    t += notify_traffic;
    return t;
  }
};

/// Build the k-ghost layer of \p f.  Throws std::invalid_argument when
/// \p k lies outside [1, D].
template <int D>
GhostLayer<D> build_ghost_layer(const Forest<D>& f, int k, SimComm& comm);

}  // namespace octbal
