#pragma once
/// \file halo.hpp
/// \brief Same-size halo pieces of a forest octant: the one kernel behind
/// balance's query build and response, the ghost layer's sender walk, and
/// delta balance's push (DESIGN.md §2.10).
///
/// A piece that stays inside its tree is a coordinate offset in the
/// identity frame; only a piece that leaves the tree goes through
/// Connectivity::neighbor.  On top of that, HaloOwnerWalk resolves the
/// owner ranks of the pieces that leave a rank's own curve span, and
/// RankKeys holds a rank's leaves as sorted packed keys split into one run
/// per tree, so a piece is matched against the rank's leaves by key range.

#include <algorithm>
#include <span>
#include <vector>

#include "core/key.hpp"
#include "forest/forest.hpp"

namespace octbal {

/// Does the whole 3^D same-size envelope of \p o lie inside its tree?  Then
/// every piece is a plain coordinate offset in the identity frame.
template <int D>
bool halo_in_tree(const Octant<D>& o) {
  const coord_t h = side_len(o);
  for (int i = 0; i < D; ++i) {
    if (o.x[i] < h || o.x[i] + 2 * h > root_len<D>) return false;
  }
  return true;
}

/// Call fn(piece, same_frame) for every same-size neighbor piece of \p to
/// at the offsets \p offs that exists in the domain, in offset order.
/// piece.oct is in piece.tree's frame and piece.xform maps it back into
/// to's frame; same_frame is true when the piece lies in to's tree in the
/// identity frame.  A periodic wrap back into the same tree is a different
/// frame.
template <int D, class Fn>
void for_each_halo_piece(const Connectivity<D>& conn, const TreeOct<D>& to,
                         std::span<const std::array<int, D>> offs, Fn&& fn) {
  const coord_t h = side_len(to.oct);
  TreeNeighbor<D> in;
  in.tree = to.tree;
  in.oct.level = to.oct.level;
  for (const auto& off : offs) {
    bool inside = true;
    for (int i = 0; i < D; ++i) {
      const coord_t c = to.oct.x[i] + static_cast<coord_t>(off[i]) * h;
      in.oct.x[i] = c;
      inside = inside && c >= 0 && c + h <= root_len<D>;
    }
    if (inside) {
      fn(static_cast<const TreeNeighbor<D>&>(in), true);
      continue;
    }
    const auto nb = conn.neighbor(to.tree, to.oct, off);
    if (!nb) continue;
    const bool same_frame = nb->tree == to.tree &&
                            nb->xform == FrameTransform<D>::identity();
    fn(static_cast<const TreeNeighbor<D>&>(*nb), same_frame);
  }
}

/// The owner walk over the halo pieces of one rank's octants, shared by the
/// query build, the ghost sender walk and the delta push.  For each piece
/// that is not covered by the rank's own curve span in the identity frame,
/// it resolves the owner ranks through an OwnerWindow (DESIGN.md §2.10):
/// the envelope's window is set once per octant whose envelope stays in its
/// tree, and an octant whose whole envelope lies inside the rank's span
/// visits nothing.  The walk counts its owner resolutions in its own
/// OwnerScanStats, read once at the end of a rank body: rank bodies run
/// concurrently, and per-lookup writes into a shared per-rank array would
/// share cache lines between threads.
template <int D>
class HaloOwnerWalk {
 public:
  HaloOwnerWalk(const Forest<D>& f, int rank)
      : conn_(f.connectivity()),
        owners_(f, &stats_),
        own_lo_(f.marker(rank)),
        own_hi_(f.marker(rank + 1)) {}

  // owners_ points at stats_, so a copy would count into the original.
  HaloOwnerWalk(const HaloOwnerWalk&) = delete;
  HaloOwnerWalk& operator=(const HaloOwnerWalk&) = delete;

  const OwnerScanStats& stats() const { return stats_; }

  /// Call fn(piece, same_frame, first, last) for every piece of \p to at
  /// \p offs outside the own span, with its owner ranks [first, last]
  /// (possibly empty ranks among them; {1, 0} when none).
  template <class Fn>
  void visit(const TreeOct<D>& to, std::span<const std::array<int, D>> offs,
             Fn&& fn) {
    const morton_t sz = morton_t{1} << (D * size_exp(to.oct));
    if (halo_in_tree(to.oct)) {
      // Morton keys are monotone in componentwise coordinate order, so the
      // (-1..-1) and (+1..+1) corner pieces bound every piece's interval.
      const coord_t h = side_len(to.oct);
      Octant<D> lo_p = to.oct, hi_p = to.oct;
      for (int i = 0; i < D; ++i) {
        lo_p.x[i] -= h;
        hi_p.x[i] += h;
      }
      const GlobalPos env_lo{to.tree, morton_key(lo_p)};
      const GlobalPos env_hi{to.tree, morton_key(hi_p) + sz - 1};
      if (own_lo_ <= env_lo && env_hi < own_hi_) return;
      owners_.set_window(env_lo, GlobalPos{to.tree, env_hi.key + 1});
    } else {
      owners_.clear_window();
    }
    for_each_halo_piece<D>(
        conn_, to, offs, [&](const TreeNeighbor<D>& nb, bool same_frame) {
          const GlobalPos lo{nb.tree, morton_key(nb.oct)};
          const GlobalPos hi{nb.tree, lo.key + sz};
          if (same_frame && own_lo_ <= lo &&
              GlobalPos{nb.tree, hi.key - 1} < own_hi_) {
            return;  // inside the rank's own span
          }
          const auto [first, last] = owners_.owners_of(lo, hi);
          fn(nb, same_frame, first, last);
        });
  }

 private:
  const Connectivity<D>& conn_;
  OwnerScanStats stats_;
  OwnerWindow<D> owners_;
  GlobalPos own_lo_, own_hi_;
};

/// A rank's leaves as sorted packed keys, one contiguous run per tree.  The
/// leaves of a run tile the rank's part of the tree, so the leaves meeting a
/// piece are one key range found by two binary searches.
template <int D>
class RankKeys {
 public:
  explicit RankKeys(const std::vector<TreeOct<D>>& mine)
      : keys_(mine.size()) {
    for (std::size_t i = 0; i < mine.size(); ++i) {
      keys_[i] = key_of(mine[i].oct);
    }
    for (std::size_t i = 0; i < mine.size();) {
      std::size_t j = i;
      while (j < mine.size() && mine[j].tree == mine[i].tree) ++j;
      runs_.push_back(Run{mine[i].tree, i, j,
                          key_interval_begin<D>(keys_[i]),
                          key_interval_end<D>(keys_[j - 1])});
      i = j;
    }
  }

  /// The leaves of tree \p tree whose key intervals meet \p piece, an
  /// octant in that tree's frame; empty when the piece misses the rank's
  /// run.
  KeySpan overlapping(std::int32_t tree, const Octant<D>& piece) const {
    const morton_t pb = morton_key(piece);
    const morton_t pe = pb + (morton_t{1} << (D * size_exp(piece)));
    const auto it = std::partition_point(
        runs_.begin(), runs_.end(),
        [&](const Run& run) { return run.tree < tree; });
    if (it == runs_.end() || it->tree != tree || it->begin >= pe ||
        it->end <= pb) {
      return KeySpan();
    }
    const okey_t* first = keys_.data() + it->lo;
    const okey_t* last = keys_.data() + it->hi;
    const okey_t* lo = std::partition_point(
        first, last, [&](okey_t x) { return key_interval_end<D>(x) <= pb; });
    const okey_t* hi = std::partition_point(
        lo, last, [&](okey_t x) { return key_interval_begin<D>(x) < pe; });
    return KeySpan(lo, static_cast<std::size_t>(hi - lo));
  }

 private:
  struct Run {
    std::int32_t tree;
    std::size_t lo, hi;   ///< index range in keys_
    morton_t begin, end;  ///< curve interval the run covers
  };
  std::vector<okey_t> keys_;
  std::vector<Run> runs_;
};

}  // namespace octbal
