#pragma once
/// \file sort.hpp
/// \brief Radix sort for octant arrays and packed-key arrays.
///
/// Sorting dominates the postprocessing of subtree balance (Section III —
/// it is the very step the new algorithm shrinks by 2^d), so the library
/// provides a dedicated LSD radix sort over the 64-bit Morton keys instead
/// of relying on comparison sorting: O(n) passes with byte-wide counting,
/// typically 2-4x faster than std::sort for large arrays.  Falls back to
/// std::sort below a small-size threshold.
///
/// The passes move 16-byte (normalized, packed) key records (core/key.hpp)
/// rather than octants: one level/width pass, then 8-bit digits over the
/// normalized Morton key, degenerate passes skipped, and every digit
/// histogram built in a single read so executed passes are scatter-only.
/// sort_octants packs and unpacks records in the same loops, with no
/// intermediate key vector.

#include <vector>

#include "core/key.hpp"
#include "core/octant.hpp"

namespace octbal {

/// Counting-pass accounting for the radix sorts, pinned by the perf guards:
/// a layout or tuning regression that changes how many passes a fixed
/// workload needs fails tier-1 before it costs wall-clock.
struct RadixStats {
  std::uint64_t level_passes = 0;  ///< width/level tie-break passes run
  std::uint64_t key_passes = 0;    ///< Morton-digit passes run
  std::uint64_t skipped_passes = 0;  ///< degenerate (constant-digit) passes
  std::uint64_t elements = 0;        ///< elements moved per pass

  std::uint64_t passes() const { return level_passes + key_passes; }
};

/// Sort \p a into Morton preorder (identical ordering to std::sort with
/// operator<, including extended/exterior octants and duplicates).
template <int D>
void sort_octants(std::vector<Octant<D>>& a);

/// Key-native sort into Morton preorder (key_less order — identical to
/// sort_octants modulo the key<->Octant bijection).  Dimension-independent:
/// the placeholder-bit normalization already encodes the geometry.
void sort_keys(std::vector<okey_t>& a, RadixStats* stats = nullptr);

namespace detail {

/// Crossovers tuned against bench_core_ops and the sort_tune sweep in the
/// perf pass (see CHANGES.md): insertion sort wins below ~24 elements,
/// std::sort up to ~64, and above that the LSD radix sort with degenerate
/// byte passes skipped is fastest on both uniform-random and shallow
/// (level <= 6) octant sets.  Shared by the key-SoA linearize, whose fused
/// path only pays off once the radix regime starts.
inline constexpr std::size_t kInsertionThreshold = 24;
inline constexpr std::size_t kRadixThreshold = 64;

/// The record the key-SoA radix passes move: the normalized key carries
/// the spatial digits, the raw packed key the width tie-break — together
/// they are the key_less order, precomputed so the counting/scatter loops
/// touch nothing but plain bytes.  Half the width of a (Morton key, Octant)
/// record, which is where the pass throughput comes from.
struct KeyRec {
  okey_t norm;
  okey_t key;
};

/// Sort \p cur into key_less order (stable LSD; \p tmp is scratch, resized
/// here).  One read over the data builds every digit histogram up front, so
/// each executed pass is scatter-only; degenerate passes are skipped and
/// accounted exactly like sort_keys.
void radix_sort_recs(std::vector<KeyRec>& cur, std::vector<KeyRec>& tmp,
                     RadixStats* stats);

/// Pack an extended-valid octant straight into a pass record: one Morton
/// interleave, the normalization folded in as constant shifts.
template <int D>
inline KeyRec key_rec_of(const Octant<D>& o) {
  const morton_t m = morton_key(o);
  return {(okey_t{1} << 63) | (m << key_norm_shift<D>),
          (okey_t{1} << (D * (o.level + 2))) |
              (m >> (D * (max_level<D> - o.level)))};
}

/// Unpack a record without re-normalizing: the Morton code is a shift away
/// from the stored norm, the level a countl_zero away from the raw key.
template <int D>
inline Octant<D> rec_oct(const KeyRec& r) {
  const morton_t m = (r.norm ^ (okey_t{1} << 63)) >> key_norm_shift<D>;
  const int level = (63 - std::countl_zero(r.key)) / D - 2;
  return octant_from_key<D>(m, level);
}

}  // namespace detail

}  // namespace octbal
