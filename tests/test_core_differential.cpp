/// \file test_core_differential.cpp
/// \brief The core differential battery: every packed-key kernel is fed the
/// same inputs as the plain test-only reference in core_reference.hpp
/// (std::sort, sort-then-drop-ancestors, a std::set membership model) and
/// must produce byte-identical outputs.  Where no reference exists the
/// kernels are checked by their defining property (complete/reduce round
/// trip, coarsest gap fill).  Inputs cover random linear sets, random
/// complete trees, and the two paper workloads (fractal, ice sheet); the
/// forest-level pipeline
/// is checked against the serial oracle at 1, 4 and 8 threads (ctest
/// label: tsan).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "core/balance_check.hpp"
#include "core/balance_subtree.hpp"
#include "core/key.hpp"
#include "core/linear.hpp"
#include "core/octant_hash.hpp"
#include "core/reduce.hpp"
#include "core/sort.hpp"
#include "forest/balance.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"
#include "core_reference.hpp"

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

/// The input families of the battery: random scatter, random complete
/// trees, and leaf arrays of the two paper workloads.
template <int D>
std::vector<std::vector<Octant<D>>> battery_inputs(std::uint64_t seed) {
  Rng rng(seed);
  const auto root = root_octant<D>();
  std::vector<std::vector<Octant<D>>> inputs;
  inputs.push_back({});  // empty edge case
  // One input per sort regime: insertion sort, std::sort, radix.
  inputs.push_back(random_linear_set(rng, root, max_level<D>, 10));
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
  auto inputs = battery_inputs<D>(1001);
  // Octants at every depth in the radix regime, so that every byte pass
  // of the normalized key runs (the battery's deep inputs are all small).
  Rng rng(1008);
  inputs.emplace_back();
  for (int i = 0; i < 2000; ++i) {
    inputs.back().push_back(random_octant(rng, root_octant<D>(), max_level<D>));
  }
  for (const auto& input : inputs) {
    // Duplicates stress the stability argument: equal elements must land
    // in identical slots.
    auto data = shuffled<D>(input, 5);
    data.insert(data.end(), input.begin(),
                input.begin() + static_cast<std::ptrdiff_t>(input.size() / 3));
    auto sorted = data;
    sort_octants(sorted);
    auto ref = data;
    reference::sort_octants(ref);
    ASSERT_EQ(sorted, ref);
    // The raw key array sorted by sort_keys matches the packed reference
    // bit for bit (memcmp, not just operator==).
    auto keys = octants_to_keys(data);
    sort_keys(keys);
    const auto packed = octants_to_keys(ref);
    ASSERT_EQ(keys.size(), packed.size());
    // memcmp needs non-null pointers even for zero bytes, and an empty
    // vector's data() may be null: equal sizes of zero are already equal.
    if (!keys.empty()) {
      ASSERT_EQ(0, std::memcmp(keys.data(), packed.data(),
                               keys.size() * sizeof(okey_t)));
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, IsLinearMatchesPairwiseDefinition) {
  // is_linear compares Morton intervals of neighbors; the reference
  // compares order and containment.  Feed both linear arrays and the ways
  // an array stops being linear: unsorted, a duplicate, an ancestor next
  // to its descendant, and exterior octants (constraint inputs of the
  // subtree balance) in and out of order.
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (const auto& input : battery_inputs<D>(1003)) {
    auto lin = input;
    reference::linearize(lin);
    std::vector<std::vector<Octant<D>>> cases{lin, shuffled<D>(lin, 4)};
    if (!lin.empty()) {
      const std::size_t mid = lin.size() / 2;
      auto dup = lin;
      dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(mid), lin[mid]);
      cases.push_back(dup);
      if (lin[mid].level > 0) {
        auto anc = lin;
        anc.insert(anc.begin() + static_cast<std::ptrdiff_t>(mid),
                   parent(lin[mid]));
        cases.push_back(anc);
      }
      Octant<D> below = root, above = root;
      below.x[0] = -root_len<D>;
      above.x[D - 1] = root_len<D>;
      auto ext = lin;
      ext.insert(ext.begin(), below);
      ext.push_back(above);
      cases.push_back(ext);
      std::swap(ext.front(), ext.back());
      cases.push_back(ext);
    }
    for (const auto& c : cases) {
      EXPECT_EQ(is_linear(c), reference::is_linear(c)) << c.size();
    }
  }
}

TYPED_TEST(CoreDifferentialTypedTest, LinearizeCompleteReduceAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (const auto& input : battery_inputs<D>(1002)) {
    auto lin = shuffled<D>(input, 9);
    linearize(lin);
    auto ref = shuffled<D>(input, 9);
    reference::linearize(ref);
    ASSERT_EQ(lin, ref);
    ASSERT_TRUE(is_linear(lin));
    EXPECT_TRUE(is_linear_keys(octants_to_keys(lin)));
    auto keys = octants_to_keys(shuffled<D>(input, 9));
    linearize_keys(keys);
    EXPECT_EQ(keys, octants_to_keys(ref));

    // Complete keeps every input leaf and is the coarsest tiling: a gap
    // tile's parent must reach an input leaf, or the parent would tile.
    const auto comp = complete(lin, root);
    ASSERT_TRUE(is_complete(comp, root));
    for (const auto& o : lin) EXPECT_NE(binary_find(comp, o), npos);
    for (const auto& c : comp) {
      if (c.level == 0 || binary_find(lin, c) != npos) continue;
      const auto [lo, hi] = overlapping_range(lin, parent(c));
      EXPECT_LT(lo, hi) << "gap tile is not maximal";
    }

    // Reduce is a lossless compression of complete linear octrees.
    const auto red = reduce(comp);
    EXPECT_LE(red.size(), comp.size() / num_children<D> + 1);
    EXPECT_EQ(complete(red, root), comp);
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
  // Answers, size, tags and query count of the key set follow the std::set
  // model of the octants the keys pack.
  HashStats stats;
  OctantHashSet<D> set(16, &stats);
  reference::HashSetModel<D> model;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(set.insert(key_of(ops[i])), model.insert(ops[i]));
    if (i % 3 == 0) {
      const auto& q = ops[ops.size() - 1 - i];
      EXPECT_EQ(set.contains(key_of(q)), model.contains(q));
    }
    if (i % 7 == 0) {
      set.tag(key_of(ops[i / 2]));
      model.tag(ops[i / 2]);
    }
  }
  EXPECT_EQ(set.size(), model.size());
  EXPECT_EQ(stats.queries, model.queries());
  std::vector<okey_t> out;
  set.collect(out, /*skip_tagged=*/true);
  auto sorted = keys_to_octants<D>(out);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, model.sorted(/*skip_tagged=*/true));
  for (const auto& o : ops) {
    EXPECT_EQ(set.is_tagged(key_of(o)), model.is_tagged(o));
  }
}

TYPED_TEST(CoreDifferentialTypedTest, SubtreeBalanceStatsAgree) {
  constexpr int D = TypeParam::d;
  const auto root = root_octant<D>();
  for (const auto& input : battery_inputs<D>(1007)) {
    auto s = input;
    reference::linearize(s);
    std::vector<Octant<D>> outputs[2];
    int slot = 0;
    for (const auto algo : {SubtreeAlgo::kOld, SubtreeAlgo::kNew}) {
      // The counters are part of the perf-guard contract: a rerun must
      // reproduce them exactly, and output_octants must count the result.
      SubtreeBalanceStats stats, again;
      const auto out = balance_subtree(algo, s, 1, root, &stats);
      EXPECT_EQ(balance_subtree(algo, s, 1, root, &again), out);
      EXPECT_TRUE(stats_equal(stats, again))
          << "hash_queries " << stats.hash_queries << " vs "
          << again.hash_queries << ", probes " << stats.hash_probes << " vs "
          << again.hash_probes;
      EXPECT_EQ(stats.output_octants, out.size());
      EXPECT_TRUE(is_balanced(out, 1, root));
      outputs[slot++] = out;
    }
    // Both subtree algorithms compute the same (unique, coarsest) balanced
    // refinement.
    EXPECT_EQ(outputs[0], outputs[1]);
  }
}

class CoreDifferentialThreads : public ::testing::TestWithParam<int> {};

/// The balanced forest equals the serial oracle, and the run at 1, 4 or 8
/// worker threads (the thread layouts of the rank bodies) is byte-identical
/// to the single-threaded one, counters included.
TEST_P(CoreDifferentialThreads, ForestPipelineByteIdenticalAcrossLayouts) {
  ThreadGuard guard;
  const auto conn = Connectivity<3>::brick({2, 2, 1});
  const int ranks = 7;
  const auto run = [&] {
    Rng rng(42);
    Forest<3> f = random_forest(conn, ranks, 1, rng, 5, 0.3);
    f.partition_uniform();
    const auto before = f.gather();
    SimComm comm(ranks);
    BalanceOptions opt;  // new_config
    opt.k = 1;
    const BalanceReport rep = balance(f, opt, comm);
    return std::make_tuple(before, f.gather(), rep);
  };
  par::set_num_threads(1);
  const auto [input, ref, ref_rep] = run();
  EXPECT_EQ(ref, forest_balance_serial(input, conn, 1));
  par::set_num_threads(GetParam());
  const auto [got_input, got, got_rep] = run();
  EXPECT_EQ(got_input, input);
  EXPECT_EQ(got, ref);
  EXPECT_TRUE(stats_equal(got_rep.subtree, ref_rep.subtree));
  EXPECT_TRUE(stats_equal(got_rep.owner_scan, ref_rep.owner_scan));
  EXPECT_EQ(got_rep.comm.bytes, ref_rep.comm.bytes);
  EXPECT_EQ(got_rep.comm.messages, ref_rep.comm.messages);
  EXPECT_EQ(got_rep.notify_comm.bytes, ref_rep.notify_comm.bytes);
  EXPECT_EQ(got_rep.queries_sent, ref_rep.queries_sent);
  EXPECT_EQ(got_rep.response_items, ref_rep.response_items);
}

INSTANTIATE_TEST_SUITE_P(Threads, CoreDifferentialThreads,
                         ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace octbal
