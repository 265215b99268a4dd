/// \file test_core_differential.cpp
/// \brief The core-layout differential battery: every ported kernel is fed
/// identical inputs under CoreLayout::kAoS and CoreLayout::kKeySoA and must
/// produce byte-identical outputs — including every instrumentation counter
/// (HashStats, SubtreeBalanceStats, OwnerScanStats), since probe sequences
/// and pass schedules are part of the byte-identity contract the perf
/// guards pin.  Inputs cover random linear sets, random complete trees, and
/// the two paper workloads (fractal, ice sheet); the forest-level pipeline
/// runs at 1, 4 and 8 threads (ctest label: tsan).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "core/balance_subtree.hpp"
#include "core/key.hpp"
#include "core/linear.hpp"
#include "core/octant_hash.hpp"
#include "core/reduce.hpp"
#include "core/search.hpp"
#include "core/sort.hpp"
#include "forest/balance.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

bool stats_equal(const SubtreeBalanceStats& a, const SubtreeBalanceStats& b) {
  return a.hash_queries == b.hash_queries && a.hash_probes == b.hash_probes &&
         a.hash_rehash_probes == b.hash_rehash_probes &&
         a.binary_searches == b.binary_searches &&
         a.sorted_octants == b.sorted_octants &&
         a.output_octants == b.output_octants;
}

bool stats_equal(const OwnerScanStats& a, const OwnerScanStats& b) {
  return a.lookups == b.lookups && a.cache_hits == b.cache_hits &&
         a.window_scans == b.window_scans &&
         a.full_searches == b.full_searches && a.comparisons == b.comparisons;
}

bool stats_equal(const HashStats& a, const HashStats& b) {
  return a.queries == b.queries && a.probes == b.probes &&
         a.rehash_probes == b.rehash_probes;
}

/// Run \p fn once per layout and require identical results.
template <typename Fn>
auto both_layouts_agree(Fn&& fn) {
  ScopedCoreLayout aos(CoreLayout::kAoS);
  const auto ref = fn();
  set_core_layout(CoreLayout::kKeySoA);
  const auto got = fn();
  EXPECT_EQ(got, ref);
  return ref;
}

/// The input families of the battery: random scatter, random complete
/// trees, and leaf arrays of the two paper workloads.
template <int D>
std::vector<std::vector<Octant<D>>> battery_inputs(std::uint64_t seed) {
  Rng rng(seed);
  const auto root = root_octant<D>();
  std::vector<std::vector<Octant<D>>> inputs;
  inputs.push_back({});  // empty edge case
  inputs.push_back(random_linear_set(rng, root, max_level<D>, 30));
  inputs.push_back(random_linear_set(rng, root, 8, 400));
  inputs.push_back(random_complete_tree(rng, root, 7, 600));
  if constexpr (D >= 2) {
    const auto conn = [] {
      if constexpr (D == 2) {
        return Connectivity<2>::brick({2, 1});
      } else {
        return Connectivity<3>::brick({2, 1, 1});
      }
    }();
    {
      Forest<D> f(conn, 1, 1);
      fractal_refine(f, 5);
      std::vector<Octant<D>> leaves;
      for (const auto& to : f.gather()) {
        if (to.tree == 0) leaves.push_back(to.oct);
      }
      inputs.push_back(std::move(leaves));
    }
    {
      Forest<D> f(conn, 1, 1);
      icesheet_refine(f, D == 2 ? 6 : 5);
      std::vector<Octant<D>> leaves;
      for (const auto& to : f.gather()) {
        if (to.tree == 0) leaves.push_back(to.oct);
      }
      inputs.push_back(std::move(leaves));
    }
  }
  return inputs;
}

/// Deterministic shuffle so the sort differential sees unsorted data.
template <int D>
std::vector<Octant<D>> shuffled(std::vector<Octant<D>> a, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = a.size(); i > 1; --i) {
    std::swap(a[i - 1], a[rng.below(i)]);
  }
  return a;
}

template <typename T>
class CoreDifferentialTypedTest : public ::testing::Test {};

template <int N>
struct Dim {
  static constexpr int d = N;
};
using Dims = ::testing::Types<Dim<1>, Dim<2>, Dim<3>>;
TYPED_TEST_SUITE(CoreDifferentialTypedTest, Dims);

TYPED_TEST(CoreDifferentialTypedTest, SortIsByteIdentical) {
  constexpr int D = TypeParam::d;
  for (const auto& input : battery_inputs<D>(1001)) {
    // Duplicates stress the stability argument: equal elements must land
    // in identical slots either way.
    auto data = shuffled<D>(input, 5);
    data.insert(data.end(), input.begin(),
                input.begin() + static_cast<std::ptrdiff_t>(input.size() / 3));
    const auto sorted = both_layouts_agree([&] {
      auto copy = data;
      sort_octants(copy);
      return copy;
    });
    ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                               [](const Octant<D>& a, const Octant<D>& b) {
                                 return a < b;
                               }));
    // The raw key array sorted by sort_keys matches the packed AoS result
    // bit for bit (memcmp, not just operator==).
    auto keys = octants_to_keys(data);
    sort_keys(keys);
    const auto packed = octants_to_keys(sorted);
    ASSERT_EQ(keys.size(), packed.size());
    // memcmp needs non-null pointers even for zero bytes, and an empty
    // vector's data() may be null: equal sizes of zero are already equal.
    if (!keys.empty()) {
      ASSERT_EQ(0, std::memcmp(keys.data(), packed.data(),
                               keys.size() * sizeof(okey_t)));
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, LinearizeCompleteReduceAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (const auto& input : battery_inputs<D>(1002)) {
    const auto lin = both_layouts_agree([&] {
      auto copy = shuffled<D>(input, 9);
      linearize(copy);
      return copy;
    });
    ASSERT_TRUE(is_linear(lin));
    EXPECT_TRUE(is_linear_keys(octants_to_keys(lin)));

    const auto comp =
        both_layouts_agree([&] { return complete(lin, root); });
    ASSERT_TRUE(is_complete(comp, root));
    EXPECT_TRUE(is_complete_keys<D>(octants_to_keys(comp), key_of(root)));

    const auto red = both_layouts_agree([&] { return reduce(comp); });
    // Key-native queries against the reduced array match the AoS binary
    // search for both members and misses.
    const auto red_keys = octants_to_keys(red);
    Rng rng(1003);
    for (int q = 0; q < 200 && !comp.empty(); ++q) {
      const auto probe = rng.chance(0.5)
                             ? comp[rng.below(comp.size())]
                             : random_octant(rng, root, max_level<D>);
      EXPECT_EQ(find_precluding_le_keys<D>(red_keys, key_of(probe)),
                find_precluding_le(red, probe));
      EXPECT_EQ(binary_find_keys(red_keys, key_of(probe)),
                binary_find(red, probe));
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, SearchAgrees) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  Rng rng(1004);
  for (const auto& input : battery_inputs<D>(1005)) {
    auto leaves = input;
    linearize(leaves);

    // search_tree: record the full (octant, range) visit trace per layout.
    using Visit = std::tuple<Octant<D>, std::size_t, std::size_t>;
    const auto trace = both_layouts_agree([&] {
      std::vector<Visit> pre_trace;
      std::vector<std::pair<Octant<D>, std::size_t>> leaf_trace;
      search_tree<D>(
          leaves, root,
          [&](const Octant<D>& o, std::size_t lo, std::size_t hi) {
            pre_trace.emplace_back(o, lo, hi);
            return true;
          },
          [&](const Octant<D>& o, std::size_t i) {
            leaf_trace.emplace_back(o, i);
          });
      return std::make_pair(pre_trace, leaf_trace);
    });
    EXPECT_EQ(trace.second.size(), leaves.size());

    std::vector<std::array<coord_t, D>> points;
    for (int i = 0; i < 300; ++i) {
      points.push_back(random_octant(rng, root, max_level<D>).x);
    }
    const auto located = both_layouts_agree(
        [&] { return locate_points<D>(leaves, root, points); });
    const auto leaf_keys = octants_to_keys(leaves);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(find_containing_leaf_keys<D>(leaf_keys, points[i]),
                find_containing_leaf<D>(leaves, points[i]));
      EXPECT_EQ(find_containing_leaf<D>(leaves, points[i]), located[i]);
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, HashSetProbesAndOrderAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  Rng rng(1006);
  std::vector<Octant<D>> ops;
  for (int i = 0; i < 3000; ++i) {
    ops.push_back(random_octant(rng, root, max_level<D>));
  }
  HashStats ref_stats, key_stats;
  std::vector<Octant<D>> ref_out, key_out;
  {
    ScopedCoreLayout aos(CoreLayout::kAoS);
    OctantHashSet<D> set(16, &ref_stats);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      set.insert(ops[i]);
      if (i % 3 == 0) set.contains(ops[ops.size() - 1 - i]);
      if (i % 7 == 0) set.tag(ops[i / 2]);
    }
    set.collect(ref_out, /*skip_tagged=*/true);
  }
  {
    ScopedCoreLayout soa(CoreLayout::kKeySoA);
    OctantHashSet<D> set(16, &key_stats);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      set.insert_key(key_of(ops[i]));
      if (i % 3 == 0) set.contains_key(key_of(ops[ops.size() - 1 - i]));
      if (i % 7 == 0) set.tag_key(key_of(ops[i / 2]));
    }
    std::vector<okey_t> keys;
    set.collect_keys(keys, /*skip_tagged=*/true);
    key_out = keys_to_octants<D>(keys);
    // Counter comparison excludes the adapter checks below, which add
    // queries of their own.
    const HashStats at_parity = key_stats;
    // The AoS adapter entry points must hit the same slots as the _key ones.
    for (const auto& o : ops) {
      EXPECT_TRUE(set.contains(o));
      EXPECT_EQ(set.is_tagged(o), set.is_tagged_key(key_of(o)));
    }
    key_stats = at_parity;
  }
  EXPECT_EQ(key_out, ref_out);  // identical slot layout => identical order
  EXPECT_EQ(ref_stats.queries, key_stats.queries);
  EXPECT_EQ(ref_stats.probes, key_stats.probes);
  EXPECT_EQ(ref_stats.rehash_probes, key_stats.rehash_probes);
}

TYPED_TEST(CoreDifferentialTypedTest, SubtreeBalanceStatsAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (const auto& input : battery_inputs<D>(1007)) {
    auto s = input;
    linearize(s);
    for (const auto algo : {SubtreeAlgo::kOld, SubtreeAlgo::kNew}) {
      SubtreeBalanceStats ref_stats, key_stats;
      std::vector<Octant<D>> ref, got;
      {
        ScopedCoreLayout aos(CoreLayout::kAoS);
        ref = balance_subtree(algo, s, 1, root, &ref_stats);
      }
      {
        ScopedCoreLayout soa(CoreLayout::kKeySoA);
        got = balance_subtree(algo, s, 1, root, &key_stats);
      }
      EXPECT_EQ(got, ref);
      EXPECT_TRUE(stats_equal(ref_stats, key_stats))
          << "hash_queries " << ref_stats.hash_queries << " vs "
          << key_stats.hash_queries << ", probes " << ref_stats.hash_probes
          << " vs " << key_stats.hash_probes;
    }
  }
}

class CoreDifferentialThreads : public ::testing::TestWithParam<int> {};

TEST_P(CoreDifferentialThreads, ForestPipelineByteIdenticalAcrossLayouts) {
  ThreadGuard guard;
  par::set_num_threads(GetParam());
  const auto conn = Connectivity<3>::brick({2, 2, 1});
  const int ranks = 7;
  const auto run = [&] {
    Forest<3> f(conn, ranks, 1);
    Rng rng(42);
    random_refine(f, rng, 5, 0.3);
    f.partition_uniform();
    SimComm comm(ranks);
    BalanceOptions opt;  // new_config
    opt.k = 1;
    const BalanceReport rep = balance(f, opt, comm);
    return std::make_pair(f.gather(), rep);
  };
  ScopedCoreLayout aos(CoreLayout::kAoS);
  const auto ref = run();
  set_core_layout(CoreLayout::kKeySoA);
  const auto got = run();
  EXPECT_EQ(got.first, ref.first);
  EXPECT_TRUE(stats_equal(got.second.subtree, ref.second.subtree));
  EXPECT_TRUE(stats_equal(got.second.owner_scan, ref.second.owner_scan));
  EXPECT_EQ(got.second.comm.bytes, ref.second.comm.bytes);
  EXPECT_EQ(got.second.comm.messages, ref.second.comm.messages);
  EXPECT_EQ(got.second.notify_comm.bytes, ref.second.notify_comm.bytes);
  EXPECT_EQ(got.second.queries_sent, ref.second.queries_sent);
  EXPECT_EQ(got.second.response_items, ref.second.response_items);
}

INSTANTIATE_TEST_SUITE_P(Threads, CoreDifferentialThreads,
                         ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace octbal
