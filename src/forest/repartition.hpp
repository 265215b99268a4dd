#pragma once
/// \file repartition.hpp
/// \brief Dynamic repartitioning: a one-shot weighted re-split of the
/// partition markers along the space-filling curve.
///
/// Per-octant weights are derived from a cost proxy (octant count,
/// insulation-layer size, or a caller-supplied functor, e.g. measured
/// per-rank seconds divided down to octants) and the markers are rebuilt
/// by the prefix-sum cut rule, which equalizes each rank's weight to
/// within one maximum-weight octant (the p4est weighted partition).
/// Nothing is gathered: each rank weighs its own leaves, a scan over the P
/// sums names the rank holding each cut, and only the octants that change
/// owner move (DESIGN.md §2.13).  Forest::partition_weighted runs the same
/// split.
///
/// The pass only moves ownership along the curve: the leaf set, the
/// partition-independent checksum and the 2:1 verdict are unchanged (the
/// audit battery's "repartition/preserves_content" invariant enforces
/// exactly this).  Migrated octants are charged to the α–β model, and the
/// slices each rank sends to the memory accountant (kRepartition), under a
/// "partition" phase, so the migration cost is visible in
/// `octbal_inspect critpath` next to the balance phases.

#include <cstdint>
#include <functional>
#include <vector>

#include "forest/balance.hpp"
#include "forest/forest.hpp"

namespace octbal {

/// The repartitioning algorithm.  kWeighted is the only one; the enum
/// keeps callers that name it explicitly compiling.
enum class RepartitionMode : std::uint8_t {
  kWeighted = 0,  ///< one-shot weighted re-split (prefix-sum cuts)
};

/// Weight derivation for the weighted re-split.
enum class RepartitionWeight : std::uint8_t {
  kOctants = 0,     ///< unit weight: equalize octant counts
  kInsulation = 1,  ///< in-root size of I(r), r included (comm proxy)
  kCustom = 2,      ///< caller-supplied functor (measured cost, etc.)
};

struct RepartitionOptions {
  RepartitionMode mode = RepartitionMode::kWeighted;
  RepartitionWeight weight = RepartitionWeight::kInsulation;
  /// Fault injection for audit self-tests; kNone for real runs.
  FaultInjection inject = FaultInjection::kNone;
};

struct RepartitionReport {
  std::uint64_t octants_moved = 0;   ///< octants that changed owner
  CommStats migration;               ///< modeled migration traffic
  std::uint64_t max_marker_shift = 0;  ///< max |cut move|, SFC positions
  /// The weight distribution the cuts equalized.
  std::uint64_t total_weight = 0;
  std::uint64_t max_octant_weight = 0;
  std::vector<std::uint64_t> weight_per_rank;
  bool changed() const { return octants_moved > 0; }
};

/// A caller-supplied octant weight.  It is called concurrently from the
/// rank workers, and twice for some octants, so it must be pure.
template <int D>
using RepartitionWeightFn = std::function<std::uint64_t(const TreeOct<D>&)>;

/// Repartition \p f in place.  \p comm is charged the migration traffic
/// under a "partition" phase bracket; nullptr runs uncharged.  \p custom
/// is consulted only for RepartitionWeight::kCustom, and must then be
/// non-empty: an empty one throws std::invalid_argument before the forest
/// is touched.
template <int D>
RepartitionReport repartition(Forest<D>& f, const RepartitionOptions& opt,
                              SimComm* comm,
                              const RepartitionWeightFn<D>& custom = {});

/// Re-install an explicit cut vector: global SFC indices, size P + 1,
/// cuts[0] == 0, cuts[P] == global octant count, monotone.  Rank r
/// receives the leaves in [cuts[r], cuts[r+1]).  Migration is swept out
/// and charged exactly like repartition() itself — the repeated-balance
/// driver uses this to *revert* a rejected re-split, and the revert
/// traffic is real traffic.  Throws std::invalid_argument when \p cuts
/// breaks any of those conditions.
template <int D>
RepartitionReport apply_cuts(Forest<D>& f,
                             const std::vector<std::size_t>& cuts,
                             SimComm* comm);

}  // namespace octbal
