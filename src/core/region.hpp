#pragma once
/// \file region.hpp
/// \brief Dirty-region completion: the coarsest linear cover of the
/// insulation envelopes of a batch of "dirty" octants.  This is the
/// sub-forest an incremental re-balance has to reconsider — every 2:1
/// interaction of a dirty octant happens with a leaf overlapping its
/// insulation layer I(o), so the union of the envelopes bounds the region
/// whose leaves can change (forest/delta_balance.hpp reports the cover's
/// size as its region counter, and the churn tests assert the delta pass
/// never touches a leaf outside it).
///
/// The cover is key-native (core/key.hpp): envelope pieces are generated
/// with key_neighbor_in_root, sorted in key_less order (as plain integers,
/// since every piece lies in the root) and dropped with key_contains, so
/// no comparison re-interleaves a Morton code.

#include <vector>

#include "core/key.hpp"
#include "core/octant.hpp"

namespace octbal {

/// The in-root pieces of the insulation layer I(o): the same-size
/// neighbors of \p o, and \p o itself, clipped to the root cube.  Between
/// 2^D and 3^D octants, in no particular order.
template <int D>
std::vector<Octant<D>> envelope_pieces(const Octant<D>& o);

/// Fold \p add into \p acc, keeping the coarsest pieces of the union.
/// Both are sorted by key_less and coarsest (no piece contains a later
/// one); so is the result.  Maximality under containment is associative,
/// so folding the same pieces in any grouping yields the same array: this
/// one step merges the cover's chunks and the per-rank covers of a tree
/// alike.  Only the tail of \p acc from the first position \p add can
/// reach is rewritten (through \p scratch), so folding pieces that land
/// past the end of \p acc costs O(|add|).
void cover_merge(std::vector<okey_t>& acc, KeySpan add,
                 std::vector<okey_t>& scratch);

/// Dirty-region completion: a sorted (key_less) linear array of packed
/// keys whose union is exactly (∪_{o ∈ dirty} I(o)) ∩ root.  The cover
/// keeps the coarsest envelope pieces — a piece contained in another
/// input's coarser piece is dropped — so its size is bounded by
/// 3^D · |dirty| independently of the forest size.  \p dirty is any
/// sequence of keys of one tree; sorted input keeps every chunk fold
/// at the tail of the cover.
template <int D>
std::vector<okey_t> dirty_region_cover(KeySpan dirty);

}  // namespace octbal
