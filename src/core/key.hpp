#pragma once
/// \file key.hpp
/// \brief Packed SFC keys: one uint64 encoding level *and* coordinates, and
/// the structure-of-arrays view the key-native core kernels operate on.
///
/// The array-of-`Octant<D>` layout costs the hot kernels dearly: every
/// comparison re-interleaves coordinates, every radix pass moves 24-byte
/// records, and every hierarchy operation masks D separate coordinates.
/// Following Cornerstone's Morton-key-centric design (arXiv:2307.06345),
/// this header packs an extended-valid octant into a single uint64
/// *placeholder-bit* key:
///
///     key(o) = 1 << (D*(level+2))  |  morton(o) >> (D*(max_level - level))
///
/// i.e. a leading 1 bit followed by the D*(level+2) significant Morton bits
/// of the biased anchor (two bits of exterior headroom per dimension, same
/// bias as morton_key).  The placeholder encodes the level in the key's bit
/// width — D*(level+2)+1 bits, at most 64 for D == 3 at level 19 — so the
/// whole identity of an octant travels in one register:
///
///   - parent/child/sibling/ancestor are single shifts or mask-ors,
///   - containment is a shift-and-compare prefix test,
///   - Morton-preorder comparison is two countl_zero-normalized compares,
///   - the radix sort moves 8-byte keys instead of 24-byte records.
///
/// The key functions are *exact* drop-in equivalents of the Octant<D>
/// operations (tests/test_key.cpp pins the differential); the core kernels
/// in sort/linear/reduce/search run on keys alone, and their Octant<D>
/// entry points are thin pack/unpack adapters, checked against the plain
/// test-only reference in tests/core_reference.hpp.

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// Packed placeholder-bit SFC key.  Never zero for a real octant (the
/// placeholder of the coarsest key is 1 << 2D), so 0 can serve as an empty
/// sentinel in hash slots and spans.
using okey_t = std::uint64_t;

/// Bits per coordinate in the key: the level bits plus two bits of exterior
/// headroom (the same bias morton_key applies).
template <int D>
inline constexpr int key_coord_bits = max_level<D> + 2;

/// Width of the deepest key, placeholder included: 64 for D == 3.
template <int D>
inline constexpr int key_max_bits = 1 + D * key_coord_bits<D>;

/// Fixed shift that aligns the full-depth Morton code with bit 62..: the
/// normalized key (placeholder at bit 63) of *any* level is
/// (1 << 63) | (morton << key_norm_shift) — level drops out entirely, which
/// is what makes one normalization shift a total Morton order.
template <int D>
inline constexpr int key_norm_shift = 63 - D * key_coord_bits<D>;

/// Pack an extended-valid octant.  Cost: one Morton interleave, two shifts.
template <int D>
constexpr okey_t key_of(const Octant<D>& o) {
  assert(is_extended_valid(o));
  const int l = o.level;
  return (okey_t{1} << (D * (l + 2))) |
         (morton_key(o) >> (D * (max_level<D> - l)));
}

/// Level of a packed key: recovered from the placeholder position.
template <int D>
constexpr int key_level(okey_t k) {
  assert(k != 0);
  return (63 - std::countl_zero(k)) / D - 2;
}

/// Normalize: shift the placeholder to bit 63.  Equal to
/// (1 << 63) | (morton << key_norm_shift) for every level, so normalized
/// keys compare exactly like the 60/63-bit Morton codes.
constexpr okey_t key_norm(okey_t k) {
  assert(k != 0);
  return k << std::countl_zero(k);
}

/// The full-depth biased Morton code of the key's anchor — bit-identical to
/// morton_key(key_oct(k)).
template <int D>
constexpr morton_t key_morton(okey_t k) {
  return (key_norm(k) ^ (okey_t{1} << 63)) >> key_norm_shift<D>;
}

/// Unpack: the exact inverse of key_of for extended-valid octants.
template <int D>
constexpr Octant<D> key_oct(okey_t k) {
  return octant_from_key<D>(key_morton<D>(k), key_level<D>(k));
}

/// Morton-preorder comparison, identical to Octant operator<: normalized
/// keys break the spatial order, the raw keys break the ancestor-first tie
/// (same anchor => the shorter key has the smaller placeholder).
constexpr bool key_less(okey_t a, okey_t b) {
  const okey_t na = key_norm(a), nb = key_norm(b);
  return na < nb || (na == nb && a < b);
}

/// parent(o) — one shift.  Requires level > 0.
template <int D>
constexpr okey_t key_parent(okey_t k) {
  assert(key_level<D>(k) > 0);
  return k >> D;
}

/// i-child(o) — one shift-or.  Requires level < max_level.
template <int D>
constexpr okey_t key_child(okey_t k, int i) {
  assert(key_level<D>(k) < max_level<D>);
  assert(0 <= i && i < num_children<D>);
  return (k << D) | static_cast<okey_t>(i);
}

/// child-id(o) — the low D bits.  Requires level > 0.
template <int D>
constexpr int key_child_id(okey_t k) {
  assert(key_level<D>(k) > 0);
  return static_cast<int>(k & ((okey_t{1} << D) - 1));
}

/// i-sibling(o) — mask-or of the low D bits.  Requires level > 0.
template <int D>
constexpr okey_t key_sibling(okey_t k, int i) {
  assert(key_level<D>(k) > 0);
  assert(0 <= i && i < num_children<D>);
  return (k & ~((okey_t{1} << D) - 1)) | static_cast<okey_t>(i);
}

/// Ancestor at the coarser-or-equal level \p lvl — one shift.
template <int D>
constexpr okey_t key_ancestor(okey_t k, int lvl) {
  assert(0 <= lvl && lvl <= key_level<D>(k));
  return k >> (D * (key_level<D>(k) - lvl));
}

/// 0-sibling (family representative); the root is its own representative.
template <int D>
constexpr okey_t key_zero_sibling(okey_t k) {
  // level >= 1 keys carry at least 3D+1 bits.
  return k >= (okey_t{1} << (3 * D)) ? key_sibling<D>(k, 0) : k;
}

/// a contains b (ancestor-or-equal): a prefix test — b shifted to a's depth
/// equals a.  The level difference is the countl_zero difference.
constexpr bool key_contains(okey_t a, okey_t b) {
  const int ca = std::countl_zero(a), cb = std::countl_zero(b);
  return ca >= cb && (b >> (ca - cb)) == a;
}

/// a is a strict ancestor of b.
constexpr bool key_is_ancestor(okey_t a, okey_t b) {
  const int ca = std::countl_zero(a), cb = std::countl_zero(b);
  return ca > cb && (b >> (ca - cb)) == a;
}

/// Preclusion (Section III-B) on keys, with the root handled like
/// core/reduce.cpp: the root has no parent, so it neither precludes nor is
/// precluded.  r < o iff parent(r) is a strict ancestor of parent(o).
template <int D>
constexpr bool key_precludes_lt(okey_t r, okey_t o) {
  if (r < (okey_t{1} << (3 * D)) || o < (okey_t{1} << (3 * D))) return false;
  return key_is_ancestor(r >> D, o >> D);
}

/// Reflexive preclusion: r <= o iff parent(r) contains parent(o).
template <int D>
constexpr bool key_precludes_le(okey_t r, okey_t o) {
  if (r < (okey_t{1} << (3 * D)) || o < (okey_t{1} << (3 * D))) return r == o;
  return key_contains(r >> D, o >> D);
}

/// Morton interval arithmetic (core/linear.cpp semantics): the key covers
/// the half-open full-depth interval [begin, end).
template <int D>
constexpr morton_t key_interval_begin(okey_t k) {
  return key_morton<D>(k);
}

template <int D>
constexpr morton_t key_interval_end(okey_t k) {
  return key_morton<D>(k) +
         (morton_t{1} << (D * (max_level<D> - key_level<D>(k))));
}

namespace detail {

/// Spread a coordinate magnitude into dimension \p i's Morton lane.
template <int D>
constexpr std::uint64_t lane_spread(std::uint64_t v, int i) {
  if constexpr (D == 1) {
    return v;
  } else if constexpr (D == 2) {
    return spread2(v) << i;
  } else {
    return spread3(v) << i;
  }
}

/// Gather dimension \p i's Morton lane back into a plain integer.
template <int D>
constexpr std::uint64_t lane_compact(std::uint64_t m, int i) {
  if constexpr (D == 1) {
    return m;
  } else if constexpr (D == 2) {
    return compact2(m >> i);
  } else {
    return compact3(m >> i);
  }
}

}  // namespace detail

/// Non-owning view of a packed-key array — the SoA counterpart of
/// `const std::vector<Octant<D>>&`.  Dimension-independent: the keys carry
/// their own geometry.
struct KeySpan {
  const okey_t* ptr = nullptr;
  std::size_t len = 0;

  KeySpan() = default;
  KeySpan(const okey_t* p, std::size_t n) : ptr(p), len(n) {}
  KeySpan(const std::vector<okey_t>& v) : ptr(v.data()), len(v.size()) {}

  const okey_t* begin() const { return ptr; }
  const okey_t* end() const { return ptr + len; }
  okey_t operator[](std::size_t i) const { return ptr[i]; }
  std::size_t size() const { return len; }
  bool empty() const { return len == 0; }
};

/// Pack a whole array (one linear pass; the interleave is the only work).
template <int D>
inline std::vector<okey_t> octants_to_keys(const std::vector<Octant<D>>& a) {
  std::vector<okey_t> k(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) k[i] = key_of(a[i]);
  return k;
}

/// key_of for the public Octant<D> entry points: key_of only asserts
/// extended validity and would round a misaligned anchor, so an octant it
/// cannot pack throws std::invalid_argument naming \p fn instead.
template <int D>
okey_t checked_key_of(const Octant<D>& o, const char* fn) {
  if (!is_extended_valid(o)) {
    throw std::invalid_argument(std::string(fn) + ": " + to_string(o) +
                                " is not an extended-valid octant");
  }
  return key_of(o);
}

/// octants_to_keys through checked_key_of.
template <int D>
std::vector<okey_t> checked_octants_to_keys(const std::vector<Octant<D>>& a,
                                            const char* fn) {
  std::vector<okey_t> k(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) k[i] = checked_key_of(a[i], fn);
  return k;
}

/// Unpack into an existing octant vector (resized to match).
template <int D>
inline void keys_to_octants(KeySpan k, std::vector<Octant<D>>& out) {
  out.resize(k.size());
  for (std::size_t i = 0; i < k.size(); ++i) out[i] = key_oct<D>(k[i]);
}

template <int D>
inline std::vector<Octant<D>> keys_to_octants(KeySpan k) {
  std::vector<Octant<D>> out;
  keys_to_octants<D>(k, out);
  return out;
}

}  // namespace octbal
