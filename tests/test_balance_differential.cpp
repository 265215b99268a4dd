/// \file test_balance_differential.cpp
/// \brief Differential testing of the paper's configurations: for seeded
/// random refinement patterns, the new algorithm (seeds + grouped
/// rebalance + Notify) must produce the *same* balanced forest, octant for
/// octant, as the old algorithm (raw octants + whole-partition rebalance +
/// Ranges), and both must pass the brute-force balance check — at several
/// rank counts, and under the threaded execution engine.

#include <gtest/gtest.h>

#include "core/balance_check.hpp"
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

template <int D>
std::vector<TreeOct<D>> balance_fresh(const Connectivity<D>& conn, int ranks,
                                      std::uint64_t seed, int max_lvl,
                                      double p_split,
                                      const BalanceOptions& opt) {
  Rng rng(seed);
  Forest<D> f = random_forest(conn, ranks, 1, rng, max_lvl, p_split);
  f.partition_uniform();
  SimComm comm(ranks);
  balance(f, opt, comm);
  EXPECT_TRUE(f.is_valid());
  return f.gather();
}

class BalanceDifferential2D : public ::testing::TestWithParam<int> {};

TEST_P(BalanceDifferential2D, OldAndNewAgreeOnRandomMeshes) {
  ThreadGuard guard;
  par::set_num_threads(8);  // exercise the concurrent paths
  const int ranks = GetParam();
  const auto conn = Connectivity<2>::brick({2, 2});
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    for (int k = 1; k <= 2; ++k) {
      BalanceOptions o_new = BalanceOptions::new_config();
      BalanceOptions o_old = BalanceOptions::old_config();
      o_new.k = o_old.k = k;
      const auto got_new =
          balance_fresh<2>(conn, ranks, seed, 6, 0.33, o_new);
      const auto got_old =
          balance_fresh<2>(conn, ranks, seed, 6, 0.33, o_old);
      const std::string label = "p=" + std::to_string(ranks) +
                                " seed=" + std::to_string(seed) +
                                " k=" + std::to_string(k);
      EXPECT_EQ(got_new, got_old) << label << ": new != old";
      EXPECT_TRUE(forest_is_balanced(got_new, conn, k)) << label;
      EXPECT_TRUE(forest_is_balanced(got_old, conn, k)) << label;
      // Per-tree brute-force oracle on top of the forest-level check.
      std::vector<Octant<2>> tree0;
      for (const auto& to : got_new) {
        if (to.tree == 0) tree0.push_back(to.oct);
      }
      EXPECT_TRUE(is_balanced(tree0, k, root_octant<2>())) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, BalanceDifferential2D,
                         ::testing::Values(1, 3, 5, 9));

class BalanceDifferential3D : public ::testing::TestWithParam<int> {};

TEST_P(BalanceDifferential3D, OldAndNewAgreeOnRandomMeshes) {
  ThreadGuard guard;
  par::set_num_threads(8);
  const int ranks = GetParam();
  const auto conn = Connectivity<3>::brick({2, 1, 1});
  for (std::uint64_t seed : {13u, 131u}) {
    for (int k : {1, 3}) {
      BalanceOptions o_new = BalanceOptions::new_config();
      BalanceOptions o_old = BalanceOptions::old_config();
      o_new.k = o_old.k = k;
      const auto got_new = balance_fresh<3>(conn, ranks, seed, 4, 0.3, o_new);
      const auto got_old = balance_fresh<3>(conn, ranks, seed, 4, 0.3, o_old);
      const std::string label = "p=" + std::to_string(ranks) +
                                " seed=" + std::to_string(seed) +
                                " k=" + std::to_string(k);
      EXPECT_EQ(got_new, got_old) << label << ": new != old";
      EXPECT_TRUE(forest_is_balanced(got_new, conn, k)) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, BalanceDifferential3D, ::testing::Values(2, 6));

TEST(BalanceDifferential, PeriodicWrapAgreesAcrossConfigs) {
  // Periodic gluings route octants through non-identity frames — the
  // subtlest code path in query/response; run it differentially too.
  ThreadGuard guard;
  par::set_num_threads(8);
  std::array<bool, 2> per{true, true};
  const auto conn = Connectivity<2>::brick({2, 1}, per);
  for (int ranks : {1, 4}) {
    const auto got_new = balance_fresh<2>(conn, ranks, 99, 5, 0.4,
                                          BalanceOptions::new_config());
    const auto got_old = balance_fresh<2>(conn, ranks, 99, 5, 0.4,
                                          BalanceOptions::old_config());
    EXPECT_EQ(got_new, got_old) << "periodic p=" << ranks;
    EXPECT_TRUE(forest_is_balanced(got_new, conn, 2));
  }
}

}  // namespace
}  // namespace octbal
