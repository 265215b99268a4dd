/// \file bench_core_ops.cpp
/// \brief Throughput of the linear-octree primitives everything else is
/// built from: Morton comparison, radix vs comparison sorting, Linearize,
/// Complete, Reduce (Fig. 8) and the complete∘reduce round trip — the
/// operations whose costs Section III trades against each other.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/key.hpp"
#include "core/linear.hpp"
#include "core/reduce.hpp"
#include "core/sort.hpp"
#include "util/rng.hpp"

namespace octbal {
namespace {

template <int D>
std::vector<Octant<D>> random_octants(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto root = root_octant<D>();
  std::vector<Octant<D>> a;
  a.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(random_octant(rng, root, max_level<D>));
  }
  return a;
}

template <int D>
void BM_MortonCompare(benchmark::State& state) {
  const auto a = random_octants<D>(1024, 1);
  std::size_t i = 0;
  bool acc = false;
  for (auto _ : state) {
    acc ^= a[i & 1023] < a[(i + 7) & 1023];
    ++i;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}

/// Same-run reference for the radix sorts: their headline claim is the
/// BM_StdSort / BM_RadixSort ratio, measured on one machine in one run.
template <int D>
void BM_StdSort(benchmark::State& state) {
  const auto base = random_octants<D>(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto a = base;
    std::sort(a.begin(), a.end());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <int D>
void BM_RadixSort(benchmark::State& state) {
  const auto base = random_octants<D>(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto a = base;
    sort_octants(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Pure key-resident sort: no pack/unpack at the boundary, the shape the
/// kernels see once callers hold KeySpans end to end.
template <int D>
void BM_SortKeys(benchmark::State& state) {
  const auto base =
      octants_to_keys(random_octants<D>(static_cast<std::size_t>(state.range(0)), 2));
  for (auto _ : state) {
    auto a = base;
    sort_keys(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <int D>
void BM_Linearize(benchmark::State& state) {
  const auto base = random_octants<D>(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto a = base;
    linearize(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <int D>
void BM_Complete(benchmark::State& state) {
  Rng rng(4);
  const auto root = root_octant<D>();
  auto base = random_linear_set(rng, root, D == 3 ? 6 : 9,
                                static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(complete(base, root));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(base.size()));
}

template <int D>
void BM_ReduceRoundTrip(benchmark::State& state) {
  Rng rng(5);
  const auto root = root_octant<D>();
  const auto tree = random_complete_tree(rng, root, D == 3 ? 6 : 9,
                                         static_cast<std::size_t>(state.range(0)));
  std::size_t reduced = 0;
  for (auto _ : state) {
    const auto r = reduce(tree);
    reduced = r.size();
    benchmark::DoNotOptimize(complete(r, root));
  }
  state.counters["input"] = static_cast<double>(tree.size());
  state.counters["reduced"] = static_cast<double>(reduced);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tree.size()));
}

}  // namespace
}  // namespace octbal

using namespace octbal;

BENCHMARK_TEMPLATE(BM_MortonCompare, 2);
BENCHMARK_TEMPLATE(BM_MortonCompare, 3);
BENCHMARK_TEMPLATE(BM_StdSort, 2)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_RadixSort, 2)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SortKeys, 2)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_StdSort, 3)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_RadixSort, 3)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SortKeys, 3)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Linearize, 2)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Linearize, 3)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Complete, 2)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Complete, 3)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ReduceRoundTrip, 2)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ReduceRoundTrip, 3)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK_MAIN();
