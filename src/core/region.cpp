#include "core/region.hpp"

#include <algorithm>

#include "core/neighborhood.hpp"
#include "obs/mem.hpp"

namespace octbal {

template <int D>
std::vector<Octant<D>> envelope_pieces(const Octant<D>& o) {
  std::vector<Octant<D>> pieces;
  pieces.reserve(full_offsets<D>().size() + 1);
  pieces.push_back(o);
  Octant<D> n;
  for (const auto& off : full_offsets<D>()) {
    if (neighbor_in_root<D>(o, off, &n)) pieces.push_back(n);
  }
  return pieces;
}

void cover_merge(std::vector<okey_t>& acc, KeySpan add,
                 std::vector<okey_t>& scratch) {
  if (add.empty()) return;
  // Pieces sorting before add[0] stay: a piece is only ever dropped for a
  // container, and a container sorts before everything it contains.
  const std::size_t p = static_cast<std::size_t>(
      std::lower_bound(acc.begin(), acc.end(), add[0], key_less) -
      acc.begin());
  // In Morton preorder any earlier non-adjacent container would also
  // contain the intervening kept piece, so comparing against the last
  // kept piece alone is exact (the dual of Linearize).
  scratch.clear();
  const auto push = [&](okey_t k) {
    const okey_t last =
        !scratch.empty() ? scratch.back() : (p > 0 ? acc[p - 1] : 0);
    if (last != 0 && key_contains(last, k)) return;
    scratch.push_back(k);
  };
  std::size_t a = p, b = 0;
  while (a < acc.size() && b < add.size()) {
    push(key_less(add[b], acc[a]) ? add[b++] : acc[a++]);
  }
  while (a < acc.size()) push(acc[a++]);
  while (b < add.size()) push(add[b++]);
  acc.resize(p);
  acc.insert(acc.end(), scratch.begin(), scratch.end());
}

namespace {

/// Every offset in [lo, hi]^D, zero included.
template <int D>
std::vector<std::array<int, D>> block_offsets(int lo, int hi) {
  std::vector<std::array<int, D>> out;
  std::array<int, D> off;
  off.fill(lo);
  while (true) {
    out.push_back(off);
    int d = 0;
    while (d < D && off[d] == hi) off[d++] = lo;
    if (d == D) return out;
    ++off[d];
  }
}

/// True when dirty[q, q + 2^D) is a whole sibling family in child order.
template <int D>
bool family_at(KeySpan dirty, std::size_t q) {
  constexpr std::size_t nc = num_children<D>;
  if (q + nc > dirty.size()) return false;
  const okey_t k = dirty[q];
  if (key_level<D>(k) == 0 || key_child_id<D>(k) != 0) return false;
  for (std::size_t i = 1; i < nc; ++i) {
    if (dirty[q + i] != k + i) return false;
  }
  return true;
}

/// key_less on in-root keys as plain integer order.  Under the placeholder
/// an in-root key's normalized form carries the fixed headroom bits
/// 0^D 1^D; shifting them out leaves room for the level below the Morton
/// bits, and (Morton, level) compares exactly like key_less.
template <int D>
okey_t in_root_order(okey_t k) {
  static_assert(max_level<D> < 32, "the level must fit in five bits");
  return (key_norm(k) << (2 * D + 1)) | static_cast<okey_t>(key_level<D>(k));
}

/// Inverse of in_root_order.
template <int D>
okey_t from_in_root_order(okey_t s) {
  constexpr okey_t kLevelBits = 31;
  const int l = static_cast<int>(s & kLevelBits);
  const okey_t norm = (okey_t{1} << 63) |
                      (((okey_t{1} << D) - 1) << (63 - 2 * D)) |
                      ((s & ~kLevelBits) >> (2 * D + 1));
  return norm >> (63 - D * (l + 2));
}

}  // namespace

template <int D>
std::vector<okey_t> dirty_region_cover(KeySpan dirty) {
  // The envelope I(o) is o's own-size block of offsets [-1, 1]^D.  Refined
  // leaves arrive as whole sibling families, whose envelopes overlap in all
  // but their outer ring: their union is the child-size block [-1, 2]^D
  // around the 0-child, so a family is expanded once — 4^D pieces instead
  // of 2^D * 3^D.  Only duplicates are skipped; the set of pieces, and so
  // the cover, is the same.
  static const auto single = block_offsets<D>(-1, 1);
  static const auto family = block_offsets<D>(-1, 2);
  // The pieces buffer is processed in fixed-size chunks so the scratch
  // stays bounded no matter how large the dirty set grows (an unchunked
  // buffer would dominate the delta-balance memory peak).  Each chunk is
  // sorted and reduced to its coarsest pieces, then folded into the
  // running cover by cover_merge.
  constexpr std::size_t kChunk = 64;
  const std::size_t cap = std::min(dirty.size(), kChunk) * single.size();
  std::vector<okey_t> pieces;
  pieces.reserve(cap);
  const obs::MemScope scratch(obs::MemTag::kRegionCover, cap * sizeof(okey_t));
  obs::MemScope cover_mem;
  std::vector<okey_t> out;
  std::vector<okey_t> tail;
  okey_t n = 0;
  std::size_t q = 0;
  while (q < dirty.size()) {
    // Fill a chunk; a family fits whenever a chunk starts (cap covers the
    // 2^D * 3^D pieces of 2^D singles whenever a family can exist).
    pieces.clear();
    while (q < dirty.size()) {
      const bool fam = family_at<D>(dirty, q);
      const auto& offs = fam ? family : single;
      if (pieces.size() + offs.size() > cap) break;
      for (const auto& off : offs) {
        if (key_neighbor_in_root<D>(dirty[q], off, &n)) pieces.push_back(n);
      }
      q += fam ? num_children<D> : 1;
    }
    // Every piece is in the root, so the chunk sorts as plain integers.
    for (auto& k : pieces) k = in_root_order<D>(k);
    std::sort(pieces.begin(), pieces.end());
    for (auto& k : pieces) k = from_in_root_order<D>(k);
    std::size_t w = 0;
    for (std::size_t t = 0; t < pieces.size(); ++t) {
      if (w > 0 && key_contains(pieces[w - 1], pieces[t])) continue;
      pieces[w++] = pieces[t];
    }
    pieces.resize(w);
    cover_mem.set(obs::MemTag::kRegionCover,
                  2 * (out.size() + pieces.size()) * sizeof(okey_t));
    cover_merge(out, pieces, tail);
  }
  return out;
}

#define OCTBAL_INSTANTIATE(D)                                       \
  template std::vector<Octant<D>> envelope_pieces<D>(const Octant<D>&); \
  template std::vector<okey_t> dirty_region_cover<D>(KeySpan);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
