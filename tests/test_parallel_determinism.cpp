/// \file test_parallel_determinism.cpp
/// \brief The threaded rank-execution engine must be invisible in every
/// *result*: for any thread count, the balanced forest (octant-for-octant),
/// the exact message counts, and the exact byte volumes are identical to
/// the single-threaded run.  Determinism holds because ordering decisions
/// are made only at SimComm barriers — delivery order is (sender, post
/// order) and each rank body runs on one thread — so thread scheduling can
/// change wall-clock only, never what any rank observes.

#include <gtest/gtest.h>

#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "util/parallel.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

/// Restore the ambient thread count when a test exits, even on failure.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

struct RunOutcome {
  std::vector<TreeOct<3>> octants;
  std::uint64_t checksum = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
};

RunOutcome run_once(int ranks, const BalanceOptions& opt, int threads) {
  par::set_num_threads(threads);
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), ranks, 2);
  fractal_refine(f, 5);
  f.partition_uniform();
  SimComm comm(ranks);
  const BalanceReport rep = balance(f, opt, comm);
  RunOutcome out;
  out.octants = f.gather();
  out.checksum = forest_checksum(f);
  out.messages = comm.stats().messages;
  out.bytes = comm.stats().bytes;
  out.queries = rep.queries_sent;
  out.responses = rep.response_items;
  return out;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ParallelDeterminism, IdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const int ranks = std::get<0>(GetParam());
  const bool use_new = std::get<1>(GetParam());
  const BalanceOptions opt =
      use_new ? BalanceOptions::new_config() : BalanceOptions::old_config();

  const RunOutcome ref = run_once(ranks, opt, 1);
  EXPECT_TRUE(forest_is_balanced(ref.octants, Connectivity<3>::brick({3, 2, 1}),
                                 3));
  for (int threads : {2, 8}) {
    const RunOutcome got = run_once(ranks, opt, threads);
    const std::string label = "ranks=" + std::to_string(ranks) +
                              " threads=" + std::to_string(threads) +
                              (use_new ? " new" : " old");
    EXPECT_EQ(got.octants, ref.octants) << label << ": octants differ";
    EXPECT_EQ(got.checksum, ref.checksum) << label;
    EXPECT_EQ(got.messages, ref.messages) << label << ": message count differs";
    EXPECT_EQ(got.bytes, ref.bytes) << label << ": byte volume differs";
    EXPECT_EQ(got.queries, ref.queries) << label;
    EXPECT_EQ(got.responses, ref.responses) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksByConfig, ParallelDeterminism,
    ::testing::Combine(::testing::Values(1, 5, 32), ::testing::Bool()),
    [](const auto& info) {
      return "P" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_new" : "_old");
    });

TEST(ParallelDeterminism, BalanceAndGhostLayer) {
  // The ghost layer also runs rank bodies concurrently; pin it too.
  ThreadGuard guard;

  auto run = [&](int threads) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 7, 2);
    fractal_refine(f, 5);
    f.partition_uniform();
    SimComm comm(7);
    balance(f, BalanceOptions::new_config(), comm);
    const GhostLayer<3> g = build_ghost_layer(f, 3, comm, NotifyAlgo::kNotify);
    std::uint64_t ghost_total = 0;
    for (const auto& pr : g.per_rank) ghost_total += pr.size();
    return std::tuple{forest_checksum(f), comm.stats().messages,
                      comm.stats().bytes, ghost_total, g.per_rank};
  };
  const auto ref = run(1);
  for (int threads : {2, 8}) {
    EXPECT_EQ(run(threads), ref) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, ThreadCountControls) {
  ThreadGuard guard;
  par::set_num_threads(3);
  EXPECT_EQ(par::num_threads(), 3);
  par::set_num_threads(1);
  EXPECT_EQ(par::num_threads(), 1);
  // 0 re-resolves the default (env override or hardware concurrency).
  par::set_num_threads(0);
  EXPECT_GE(par::num_threads(), 1);
}

TEST(ParallelDeterminism, ExceptionPropagatesFromRankBody) {
  ThreadGuard guard;
  par::set_num_threads(4);
  EXPECT_THROW(
      par::parallel_for_ranks(16,
                              [](int r) {
                                if (r == 11) throw std::runtime_error("rank 11");
                              }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::vector<int> hit(16, 0);
  par::parallel_for_ranks(16, [&](int r) { hit[r] = 1; });
  for (int r = 0; r < 16; ++r) EXPECT_EQ(hit[r], 1) << r;
}

}  // namespace
}  // namespace octbal
