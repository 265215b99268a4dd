#pragma once
/// \file core_reference.hpp
/// \brief Test-only reference for the core kernels: std::sort by
/// Octant::operator< for sort_octants, sort-then-drop-ancestors for
/// linearize, the pairwise order-and-containment test for is_linear, and
/// the octant hash and a std::set membership model for OctantHashSet.
///
/// These are the plain definitions the packed-key kernels in core/ must
/// reproduce byte for byte.  They are slow — comparison sorting of 24-byte
/// records, a node-based set — and exist only so the differential tests in
/// test_core_differential.cpp have an oracle that shares no code with the
/// kernels under test.
///
/// key_neighbor_in_root, a same-size neighbor computed in the Morton code,
/// goes the other way: test_key.cpp checks it against neighbor_in_root to
/// cross-check the key lane helpers.

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/key.hpp"
#include "core/octant.hpp"

namespace octbal::reference {

/// Morton preorder by Octant::operator<.
template <int D>
void sort_octants(std::vector<Octant<D>>& a) {
  std::sort(a.begin(), a.end());
}

/// Linearize: sort, then drop every element that contains its successor
/// (in preorder an ancestor or duplicate immediately precedes what it
/// covers), keeping the finest octants.
template <int D>
void linearize(std::vector<Octant<D>>& a) {
  reference::sort_octants(a);
  std::vector<Octant<D>> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i + 1 < a.size() && contains(a[i], a[i + 1])) continue;
    out.push_back(a[i]);
  }
  a = std::move(out);
}

/// Linear: every element precedes its successor in Morton preorder and
/// does not contain it.
template <int D>
bool is_linear(const std::vector<Octant<D>>& a) {
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    if (!(a[i] < a[i + 1]) || contains(a[i], a[i + 1])) return false;
  }
  return true;
}

/// The octant-valued hash OctantHashSet's key_hash must equal: the Morton
/// key and level mixed through the splitmix64 finalizer.
template <int D>
std::uint64_t octant_hash(const Octant<D>& o) {
  std::uint64_t z =
      morton_key(o) ^ (static_cast<std::uint64_t>(o.level) << 58);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Membership model of OctantHashSet: the same insert/contains/tag
/// answers and the same query count, with std::set holding the state.
template <int D>
class HashSetModel {
 public:
  bool insert(const Octant<D>& o) {
    ++queries_;
    return members_.insert(o).second;
  }
  bool contains(const Octant<D>& o) {
    ++queries_;
    return members_.count(o) != 0;
  }
  void tag(const Octant<D>& o) {
    if (members_.count(o) != 0) tagged_.insert(o);
  }
  bool is_tagged(const Octant<D>& o) const { return tagged_.count(o) != 0; }
  std::size_t size() const { return members_.size(); }
  std::uint64_t queries() const { return queries_; }

  /// Members (optionally only untagged ones) in Morton preorder.
  std::vector<Octant<D>> sorted(bool skip_tagged) const {
    std::vector<Octant<D>> out;
    for (const auto& o : members_) {
      if (!(skip_tagged && is_tagged(o))) out.push_back(o);
    }
    return out;
  }

 private:
  std::set<Octant<D>> members_, tagged_;
  std::uint64_t queries_ = 0;
};

/// Same-size neighbor offset by \p off octant side lengths per dimension,
/// without unpacking to coordinates: dilated add/subtract directly in the
/// Morton code (Cornerstone's branch-free neighbor technique), then a
/// per-dimension top-bits check that the result stays inside the root.
/// Exact mirror of neighbor_in_root: returns false (out untouched) when the
/// neighbor leaves the root octant.  Kept as a cross-check of the lane
/// helpers of core/key.hpp, which the subtree balance kernel uses.
template <int D>
constexpr bool key_neighbor_in_root(okey_t k, const std::array<int, D>& off,
                                    okey_t* out) {
  const int l = key_level<D>(k);
  morton_t m = key_morton<D>(k);
  const std::uint64_t h = std::uint64_t{1} << (max_level<D> - l);
  // Dilated per-dimension lane mask of the Morton interleave.
  constexpr std::uint64_t lane_mask = D == 1   ? ~std::uint64_t{0}
                                      : D == 2 ? 0x5555555555555555ull
                                               : 0x1249249249249249ull;
  bool ok = true;
  for (int i = 0; i < D; ++i) {
    const std::uint64_t mask = lane_mask << i;
    const std::uint64_t mag =
        (off[i] < 0 ? -static_cast<std::uint64_t>(off[i])
                    : static_cast<std::uint64_t>(off[i])) *
        h;
    // |offset| >= 2 root lengths cannot land inside the root from any
    // extended-valid start; reject before the dilated arithmetic can wrap
    // more than once around the biased coordinate field.
    if (mag >= (std::uint64_t{2} << max_level<D>)) return false;
    const std::uint64_t sv = detail::lane_spread<D>(mag, i);
    // Dilated add/sub: carries/borrows skip the other dimensions' bits.
    const std::uint64_t lane = off[i] < 0
                                   ? ((m & mask) - sv) & mask
                                   : ((m | ~mask) + sv) & mask;
    m = (m & ~mask) | lane;
    // In-root biased coordinate iff the two headroom bits read exactly 01
    // (biased coordinate in [root_len, 2*root_len)); any dilated wrap-around
    // lands outside that window and is rejected here too.
    ok &= (detail::lane_compact<D>(m, i) >> max_level<D>) == 1;
  }
  if (!ok) return false;
  *out = (okey_t{1} << (D * (l + 2))) | (m >> (D * (max_level<D> - l)));
  return true;
}

}  // namespace octbal::reference
