/// \file test_util.cpp
/// \brief Tests for the utility layer: deterministic RNG, octant hash set
/// (growth, tagging, instrumentation), CLI parsing, and SVG rendering.

#include <gtest/gtest.h>

#include <set>

#include "core/octant_hash.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/svg.hpp"
#include "forest/forest.hpp"
#include "core_reference.hpp"
#include <fstream>

namespace octbal {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    differs = differs || a2.next() != c.next();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(OctantHash, InsertContainsGrowth) {
  HashStats stats;
  OctantHashSet<2> set(4, &stats);
  Rng rng(5);
  const auto root = root_octant<2>();
  std::set<std::pair<morton_t, int>> reference;
  for (int i = 0; i < 2000; ++i) {
    const auto o = random_octant(rng, root, 8);
    const bool inserted = set.insert(key_of(o));
    const bool fresh =
        reference.insert({morton_key(o), o.level}).second;
    EXPECT_EQ(inserted, fresh);
  }
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_GE(stats.queries, 2000u);
  // Membership agrees with the reference for fresh probes.
  Rng rng2(5);
  for (int i = 0; i < 2000; ++i) {
    const auto o = random_octant(rng2, root, 8);
    EXPECT_TRUE(set.contains(key_of(o)));
  }
}

/// Reference model of the open-addressing set: same hash, same capacity
/// schedule, but query probes and rehash probes tallied independently so
/// the production counters can be checked for *exact* equality.  Guards
/// the Section III collision metric against rehash pollution: grow() used
/// to funnel its internal re-probes into HashStats::probes, inflating the
/// probes-per-query ratio reported by bench_subtree.
struct RefHash {
  struct Slot {
    Oct2 oct{};
    bool used = false;
  };
  std::vector<Slot> slots{std::vector<Slot>(16)};
  std::size_t size = 0;
  std::uint64_t queries = 0, probes = 0, rehash_probes = 0;
  int grows = 0;

  std::size_t find(const Oct2& o, std::uint64_t* counter) const {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = reference::octant_hash(o) & mask;
    while (slots[i].used && !(slots[i].oct == o)) {
      ++*counter;
      i = (i + 1) & mask;
    }
    return i;
  }

  void insert(const Oct2& o) {
    ++queries;
    const std::size_t i = find(o, &probes);
    if (slots[i].used) return;
    slots[i] = Slot{o, true};
    ++size;
    if (size * 2 > slots.size()) {
      ++grows;
      std::vector<Slot> old;
      old.swap(slots);
      slots.resize(old.size() * 2);
      for (const Slot& s : old) {
        if (s.used) slots[find(s.oct, &rehash_probes)] = s;
      }
    }
  }

  void contains(const Oct2& o) {
    ++queries;
    (void)find(o, &probes);
  }
};

TEST(OctantHash, GrowthExcludesRehashProbesFromQueryMetric) {
  HashStats stats;
  OctantHashSet<2> set(4, &stats);  // capacity 16, same as the reference
  RefHash ref;
  Rng rng(42);
  const auto root = root_octant<2>();
  for (int i = 0; i < 3000; ++i) {
    const auto o = random_octant(rng, root, 9);
    set.insert(key_of(o));
    ref.insert(o);
    if (i % 4 == 0) {
      const auto probe = random_octant(rng, root, 9);
      set.contains(key_of(probe));
      ref.contains(probe);
    }
  }
  ASSERT_GT(ref.grows, 3) << "the schedule must cross several resizes";
  ASSERT_GT(ref.rehash_probes, 0u)
      << "rehashing this many octants must collide at least once";
  EXPECT_EQ(set.size(), ref.size);
  EXPECT_EQ(stats.queries, ref.queries);
  // Exact counts: query probes must not include the internal rehash walk.
  EXPECT_EQ(stats.probes, ref.probes);
  EXPECT_EQ(stats.rehash_probes, ref.rehash_probes);
}

TEST(OctantHash, TaggingAndCollect) {
  OctantHashSet<2> set;
  const auto root = root_octant<2>();
  const okey_t a = key_of(child(root, 0)), b = key_of(child(root, 1));
  set.insert(a);
  set.insert(b);
  set.tag(a);
  EXPECT_TRUE(set.is_tagged(a));
  EXPECT_FALSE(set.is_tagged(b));
  std::vector<okey_t> all, untagged;
  set.collect(all);
  set.collect(untagged, /*skip_tagged=*/true);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(untagged.size(), 1u);
  EXPECT_EQ(untagged[0], b);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog",     "--ranks", "8",          "--alpha=0.5",
                        "--verbose", "--name",  "hello_world"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("ranks", 1), 8);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_string("name", ""), "hello_world");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Svg, RendersEveryLeafAsARect) {
  Rng rng(3);
  const auto root = root_octant<2>();
  const auto t = random_complete_tree(rng, root, 4, 30);
  const std::string svg = render_svg(t);
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 5;
  }
  EXPECT_EQ(rects, t.size());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, ForestLayoutScalesWithBrick) {
  Forest<2> f(Connectivity<2>::brick({3, 2}), 1, 1);
  const std::string svg = render_svg(f.gather(), f.connectivity());
  // Width = 3 trees * 256 px, height = 2 * 256 px.
  EXPECT_NE(svg.find("width=\"768\""), std::string::npos);
  EXPECT_NE(svg.find("height=\"512\""), std::string::npos);
}

TEST(Svg, WriteFileRoundTrip) {
  const std::string path = "/tmp/octbal_svg_test.svg";
  EXPECT_TRUE(write_file(path, "<svg/>"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "<svg/>");
}

}  // namespace
}  // namespace octbal
