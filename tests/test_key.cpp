/// \file test_key.cpp
/// \brief Differential and exhaustive tests for the packed placeholder-bit
/// key (core/key.hpp): key<->Octant round trips over whole coordinate
/// lattices, the branch-free hierarchy/comparison/neighbor ops pitted
/// against the Octant<D> reference methods, and the overflow boundaries of
/// the 64-bit encoding (D == 3 at level 19 uses every bit).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "core/key.hpp"
#include "core/octant.hpp"
#include "core/octant_hash.hpp"
#include "core/sort.hpp"
#include "util/rng.hpp"
#include "core_reference.hpp"

namespace octbal {
namespace {

template <typename T>
class KeyTypedTest : public ::testing::Test {};

template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(KeyTypedTest, Dims);

/// Uniform random *extended-valid* octant: anchors aligned to the level
/// grid anywhere in [-root_len, 2*root_len) — the full key domain, wider
/// than random_octant's in-root draws.
template <int D>
Octant<D> random_extended(Rng& rng) {
  Octant<D> o;
  o.level = static_cast<level_t>(rng.below(max_level<D> + 1));
  const coord_t side = static_cast<coord_t>(root_len<D> >> o.level);
  for (int i = 0; i < D; ++i) {
    const auto cells = std::uint64_t{3} << o.level;
    o.x[i] = static_cast<coord_t>(rng.below(cells)) * side - root_len<D>;
  }
  return o;
}

TYPED_TEST(KeyTypedTest, RoundTripSampled) {
  constexpr int D = TypeParam::d;
  Rng rng(20120901);
  for (int iter = 0; iter < 4000; ++iter) {
    const auto o = random_extended<D>(rng);
    const okey_t k = key_of(o);
    ASSERT_NE(k, 0u);
    EXPECT_EQ(key_level<D>(k), o.level);
    EXPECT_EQ(key_morton<D>(k), morton_key(o));
    EXPECT_EQ(key_oct<D>(k), o);
    // The level-independent normalization identity that makes key_less a
    // single shifted compare.
    EXPECT_EQ(key_norm(k), (okey_t{1} << 63) |
                               (morton_key(o) << key_norm_shift<D>));
  }
}

TEST(KeyExhaustive, RoundTripAllLevels2D) {
  constexpr int D = 2;
  for (int level = 0; level <= max_level<D>; ++level) {
    const coord_t side = static_cast<coord_t>(root_len<D> >> level);
    const std::uint64_t cells = std::uint64_t{3} << level;  // anchors per dim
    // Exhaustive lattice through level 3 (up to 24x24 anchors); deeper
    // levels sample a fixed number of multiplicative-hash positions per
    // dimension, which sweeps varied high and low coordinate bits.
    std::vector<std::int64_t> xs;
    if (cells <= 24) {
      for (std::uint64_t j = 0; j < cells; ++j) {
        xs.push_back(static_cast<std::int64_t>(j) * side - root_len<D>);
      }
    } else {
      for (std::uint64_t j = 0; j < 40; ++j) {
        const std::uint64_t pos = (j * 2654435761ull + level) % cells;
        xs.push_back(static_cast<std::int64_t>(pos) * side - root_len<D>);
      }
    }
    for (const std::int64_t x : xs) {
      for (const std::int64_t y : xs) {
        Octant<D> o;
        o.level = static_cast<level_t>(level);
        o.x = {static_cast<coord_t>(x), static_cast<coord_t>(y)};
        ASSERT_TRUE(is_extended_valid(o));
        const okey_t k = key_of(o);
        ASSERT_EQ(key_oct<D>(k), o) << "level " << level;
        ASSERT_EQ(key_level<D>(k), level);
        ASSERT_EQ(63 - std::countl_zero(k), D * (level + 2));
      }
    }
  }
}

TEST(KeyExhaustive, SampledLattices3D) {
  constexpr int D = 3;
  Rng rng(77);
  for (const int level : {0, 1, 2, 7, max_level<D> - 1, max_level<D>}) {
    const coord_t side = static_cast<coord_t>(root_len<D> >> level);
    for (int iter = 0; iter < 500; ++iter) {
      Octant<D> o;
      o.level = static_cast<level_t>(level);
      for (int i = 0; i < D; ++i) {
        o.x[i] = static_cast<coord_t>(rng.below(std::uint64_t{3} << level)) *
                     side -
                 root_len<D>;
      }
      const okey_t k = key_of(o);
      ASSERT_EQ(key_oct<D>(k), o);
    }
  }
}

TYPED_TEST(KeyTypedTest, OrderMatchesOctant) {
  constexpr int D = TypeParam::d;
  Rng rng(31);
  for (int iter = 0; iter < 4000; ++iter) {
    const auto a = random_extended<D>(rng);
    // Half the pairs are hierarchy-related (the tie-break cases), half are
    // independent draws.
    Octant<D> b;
    if (rng.chance(0.5)) {
      b = random_extended<D>(rng);
    } else {
      b = a;
      while (b.level < max_level<D> && rng.chance(0.7)) {
        b = child(b, static_cast<int>(rng.below(num_children<D>)));
      }
    }
    const okey_t ka = key_of(a), kb = key_of(b);
    EXPECT_EQ(key_less(ka, kb), a < b);
    EXPECT_EQ(key_less(kb, ka), b < a);
    EXPECT_EQ(ka == kb, a == b);
  }
}

TYPED_TEST(KeyTypedTest, HierarchyOpsDifferential) {
  constexpr int D = TypeParam::d;
  Rng rng(32);
  for (int iter = 0; iter < 3000; ++iter) {
    const auto o = random_extended<D>(rng);
    const okey_t k = key_of(o);
    if (o.level > 0) {
      EXPECT_EQ(key_parent<D>(k), key_of(parent(o)));
      EXPECT_EQ(key_child_id<D>(k), child_id(o));
      EXPECT_EQ(key_zero_sibling<D>(k), key_of(zero_sibling(o)));
      for (int i = 0; i < num_children<D>; ++i) {
        EXPECT_EQ(key_sibling<D>(k, i), key_of(sibling(o, i)));
      }
    } else {
      EXPECT_EQ(key_zero_sibling<D>(k), k);  // root is its own representative
    }
    if (o.level < max_level<D>) {
      for (int i = 0; i < num_children<D>; ++i) {
        EXPECT_EQ(key_child<D>(k, i), key_of(child(o, i)));
      }
    }
    const int lvl = static_cast<int>(rng.below(o.level + 1));
    EXPECT_EQ(key_ancestor<D>(k, lvl), key_of(ancestor(o, lvl)));
    EXPECT_EQ(key_interval_begin<D>(k), morton_key(o));
    EXPECT_EQ(key_interval_end<D>(k),
              morton_key(o) + (morton_t{1} << (D * size_exp(o))));
    EXPECT_EQ(key_hash<D>(k), reference::octant_hash(o));
  }
}

TYPED_TEST(KeyTypedTest, ContainsAndPreclusionDifferential) {
  constexpr int D = TypeParam::d;
  Rng rng(33);
  for (int iter = 0; iter < 3000; ++iter) {
    const auto a = random_extended<D>(rng);
    Octant<D> b;
    if (rng.chance(0.5)) {
      b = random_extended<D>(rng);
    } else {
      b = a;
      while (b.level < max_level<D> && rng.chance(0.6)) {
        b = child(b, static_cast<int>(rng.below(num_children<D>)));
      }
    }
    const okey_t ka = key_of(a), kb = key_of(b);
    EXPECT_EQ(key_contains(ka, kb), contains(a, b));
    EXPECT_EQ(key_is_ancestor(ka, kb), is_ancestor(a, b));
    // key_precludes_* bake in the root guard of core/reduce.cpp.
    const bool ref_lt = (a.level == 0 || b.level == 0)
                            ? false
                            : precludes_lt(a, b);
    const bool ref_le = (a.level == 0 || b.level == 0)
                            ? a == b
                            : precludes_le(a, b);
    EXPECT_EQ(key_precludes_lt<D>(ka, kb), ref_lt);
    EXPECT_EQ(key_precludes_le<D>(ka, kb), ref_le);
  }
}

TYPED_TEST(KeyTypedTest, NeighborDifferential) {
  constexpr int D = TypeParam::d;
  Rng rng(34);
  for (int iter = 0; iter < 3000; ++iter) {
    const auto o = random_extended<D>(rng);
    const okey_t k = key_of(o);
    std::array<int, D> off{};
    for (int i = 0; i < D; ++i) {
      switch (rng.below(8)) {
        case 6:  // far offsets exercise the wrap guard
          off[i] = static_cast<int>(rng.below(1u << 20)) - (1 << 19);
          break;
        case 7:
          off[i] = rng.chance(0.5) ? 3 : -3;
          break;
        default:
          off[i] = static_cast<int>(rng.below(5)) - 2;
      }
    }
    Octant<D> ref_out;
    okey_t key_out = 0;
    const bool ref = neighbor_in_root<D>(o, off, &ref_out);
    const bool got = reference::key_neighbor_in_root<D>(k, off, &key_out);
    ASSERT_EQ(got, ref) << to_string(o);
    if (ref) {
      ASSERT_EQ(key_oct<D>(key_out), ref_out) << to_string(o);
    }
  }
}

TEST(KeyBoundary, DeepestKeysUseAllBits3D) {
  constexpr int D = 3;
  // The finest extended octant at the far corner: biased coordinates are
  // all-ones, so the key is exactly 64 bits with no slack.
  Octant<D> o;
  o.level = max_level<D>;
  for (int i = 0; i < D; ++i) o.x[i] = 2 * root_len<D> - 1;
  ASSERT_TRUE(is_extended_valid(o));
  const okey_t k = key_of(o);
  EXPECT_EQ(std::countl_zero(k), 0);  // placeholder sits at bit 63 exactly
  // Biased coordinates top out at 3*root_len - 1 (headroom bits 10), so the
  // morton payload is the interleave of all-ones below a 10 prefix per dim.
  Octant<D> back = key_oct<D>(k);
  EXPECT_EQ(back, o);
  EXPECT_EQ(key_level<D>(k), max_level<D>);

  // The near corner at the same depth: morton 0, bare placeholder.
  Octant<D> lo;
  lo.level = max_level<D>;
  for (int i = 0; i < D; ++i) lo.x[i] = -root_len<D>;
  const okey_t kl = key_of(lo);
  EXPECT_EQ(kl, okey_t{1} << 63);
  EXPECT_EQ(key_oct<D>(kl), lo);
  EXPECT_TRUE(key_less(kl, k));
}

TYPED_TEST(KeyTypedTest, RootAndSentinelBoundaries) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  const okey_t kr = key_of(root);
  // Coarsest keys still carry the two headroom bits per dimension, so no
  // real key can collide with the empty sentinel 0.
  EXPECT_GE(kr, okey_t{1} << (2 * D));
  EXPECT_EQ(key_level<D>(kr), 0);
  EXPECT_EQ(key_oct<D>(kr), root);
  // Interval arithmetic at the root does not overflow the morton type.
  EXPECT_EQ(key_interval_end<D>(kr) - key_interval_begin<D>(kr),
            morton_t{1} << (D * max_level<D>));
  // Level-0/level-1 threshold used by key_zero_sibling and the preclusion
  // root guards.
  EXPECT_LT(kr, okey_t{1} << (3 * D));
  EXPECT_GE(key_child<D>(kr, 0), okey_t{1} << (3 * D));
}

TEST(KeySortStats, WidthPassSkippedForUniformLevel) {
  constexpr int D = 3;
  Rng rng(35);
  const auto root = root_octant<D>();
  std::vector<okey_t> keys;
  for (int i = 0; i < 500; ++i) {
    auto o = random_octant(rng, root, 6);
    while (o.level < 6) {
      o = child(o, static_cast<int>(rng.below(num_children<D>)));
    }
    keys.push_back(key_of(o));
  }
  RadixStats st;
  sort_keys(keys, &st);
  EXPECT_EQ(st.level_passes, 0u);  // all widths equal -> pass skipped
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end(),
                             [](okey_t a, okey_t b) { return key_less(a, b); }));
}

}  // namespace
}  // namespace octbal
