/// \file test_balance_parallel.cpp
/// \brief End-to-end tests of the distributed one-pass 2:1 balance: every
/// configuration (old/new subtree, raw/seed response, full/grouped
/// rebalance, all Notify variants) must produce exactly the serial
/// reference result, across dimensions, balance conditions, rank counts,
/// and connectivities.

#include <gtest/gtest.h>

#include <stdexcept>

#include "forest/balance.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

/// Deep refinement along a corner chain: maximally graded meshes that
/// stress long-range balance effects across partitions.
template <int D>
void corner_refine(Forest<D>& f, int max_lvl) {
  f.refine(
      [&](const TreeOct<D>& to) {
        if (to.oct.level >= max_lvl) return false;
        for (int i = 0; i < D; ++i) {
          if (to.oct.x[i] != 0) return false;
        }
        return true;
      },
      true);
}

template <int D>
void expect_balanced_and_equal_to_serial(Forest<D>& f,
                                         const BalanceOptions& opt,
                                         const std::string& label) {
  const auto before = f.gather();
  const int k = opt.k == 0 ? D : opt.k;
  const auto want = forest_balance_serial(before, f.connectivity(), k);

  SimComm comm(f.num_ranks());
  const auto rep = balance(f, opt, comm);
  EXPECT_TRUE(f.is_valid()) << label;
  const auto got = f.gather();
  EXPECT_TRUE(forest_is_balanced(got, f.connectivity(), k)) << label;
  EXPECT_EQ(got, want) << label << ": distributed != serial reference";
  EXPECT_EQ(rep.octants_after, got.size());
  EXPECT_GE(rep.octants_after, rep.octants_before);
}

struct Config {
  BalanceOptions opt;
  const char* name;
};

std::vector<Config> all_configs() {
  std::vector<Config> cfgs;
  cfgs.push_back({BalanceOptions::new_config(), "new"});
  cfgs.push_back({BalanceOptions::old_config(), "old"});
  // Mixed ablations.
  BalanceOptions a = BalanceOptions::new_config();
  a.subtree = SubtreeAlgo::kOld;
  cfgs.push_back({a, "new+old-subtree"});
  BalanceOptions b = BalanceOptions::new_config();
  b.seed_response = false;
  b.grouped_rebalance = false;
  cfgs.push_back({b, "new-subtree+old-response"});
  BalanceOptions c = BalanceOptions::old_config();
  c.notify_algo = NotifyAlgo::kNaive;
  cfgs.push_back({c, "old+naive-notify"});
  BalanceOptions d = BalanceOptions::new_config();
  d.seed_response = false;
  d.grouped_rebalance = true;  // raw octants, grouped reconstruction
  cfgs.push_back({d, "raw-response+grouped"});
  return cfgs;
}

class BalanceParallel2D : public ::testing::TestWithParam<int> {};

TEST_P(BalanceParallel2D, RandomMeshAllConfigs) {
  const int p = GetParam();
  for (int k = 1; k <= 2; ++k) {
    for (const auto& cfg : all_configs()) {
      Rng rng(1000 + p * 10 + k);
      auto f =
          random_forest(Connectivity<2>::brick({2, 1}), p, 1, rng, 5, 0.35);
      f.partition_uniform();
      auto opt = cfg.opt;
      opt.k = k;
      expect_balanced_and_equal_to_serial(
          f, opt, std::string(cfg.name) + " p=" + std::to_string(p) +
                      " k=" + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, BalanceParallel2D,
                         ::testing::Values(1, 2, 3, 5, 8));

class BalanceParallel3D : public ::testing::TestWithParam<int> {};

TEST_P(BalanceParallel3D, RandomMeshOldAndNew) {
  const int p = GetParam();
  for (int k : {1, 2, 3}) {
    for (const auto& cfg : {Config{BalanceOptions::new_config(), "new"},
                            Config{BalanceOptions::old_config(), "old"}}) {
      Rng rng(2000 + p * 10 + k);
      auto f =
          random_forest(Connectivity<3>::brick({2, 1, 1}), p, 1, rng, 3, 0.3);
      f.partition_uniform();
      auto opt = cfg.opt;
      opt.k = k;
      expect_balanced_and_equal_to_serial(
          f, opt, std::string(cfg.name) + " p=" + std::to_string(p) +
                      " k=" + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, BalanceParallel3D, ::testing::Values(1, 4, 6));

TEST(BalanceParallel, DeepCornerChainAcrossManyRanks) {
  // A maximally graded mesh: long-range ripple effects spanning several
  // partitions — the hard case for one-pass balance.
  for (int p : {2, 7}) {
    Forest<2> f(Connectivity<2>::unitcube(), p, 1);
    corner_refine(f, 9);
    f.partition_uniform();
    expect_balanced_and_equal_to_serial(f, BalanceOptions::new_config(),
                                        "corner chain p=" + std::to_string(p));
    // Also the old pipeline on a fresh copy.
    Forest<2> g(Connectivity<2>::unitcube(), p, 1);
    corner_refine(g, 9);
    g.partition_uniform();
    expect_balanced_and_equal_to_serial(g, BalanceOptions::old_config(),
                                        "corner chain old");
  }
}

TEST(BalanceParallel, SelfPeriodicSingleTree) {
  // Regression: a 1x1 brick periodic in x is glued to *itself*; the wrap
  // couples the tree's left and right edges, which the local subtree
  // balance cannot see — the query path must handle it even on one rank.
  std::array<bool, 2> per{true, false};
  for (int p : {1, 3}) {
    Forest<2> f(Connectivity<2>::brick({1, 1}, per), p, 1);
    // Deep refinement at the left edge: the wrap forces the right edge.
    f.refine(
        [](const TreeOct<2>& to) {
          return to.oct.level < 6 && to.oct.x[0] == 0;
        },
        true);
    f.partition_uniform();
    expect_balanced_and_equal_to_serial(
        f, BalanceOptions::new_config(),
        "self-periodic p=" + std::to_string(p));
  }
}

TEST(BalanceParallel, PeriodicBrick) {
  std::array<bool, 2> per{true, true};
  Rng rng(42);
  auto f =
      random_forest(Connectivity<2>::brick({2, 2}, per), 4, 1, rng, 4, 0.4);
  f.partition_uniform();
  expect_balanced_and_equal_to_serial(f, BalanceOptions::new_config(),
                                      "periodic 2x2");
}

TEST(BalanceParallel, AlreadyBalancedMeshIsUntouched) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 3, 3);
  const auto before = f.gather();
  SimComm comm(3);
  const auto rep = balance(f, BalanceOptions::new_config(), comm);
  EXPECT_EQ(f.gather(), before);
  EXPECT_EQ(rep.octants_before, rep.octants_after);
}

TEST(BalanceParallel, ThrowsOnOutOfRangeK) {
  // A runtime check, not an assert: release builds reject it too, and the
  // forest is left as it was.
  Forest<2> f(Connectivity<2>::brick({2, 1}), 3, 3);
  const auto before = f.gather();
  for (const int k : {-1, 3, 7}) {
    BalanceOptions opt = BalanceOptions::new_config();
    opt.k = k;
    SimComm comm(3);
    EXPECT_THROW(balance(f, opt, comm), std::invalid_argument) << "k=" << k;
  }
  EXPECT_EQ(f.gather(), before);
}

TEST(BalanceParallel, SeedsShrinkResponseVolume) {
  // The paper's key communication claim: seed responses move fewer bytes
  // than raw-octant responses on a graded mesh.
  auto make = [](int p) {
    Forest<2> f(Connectivity<2>::unitcube(), p, 1);
    corner_refine(f, 10);
    f.partition_uniform();
    return f;
  };
  auto f_new = make(6);
  auto f_old = make(6);
  SimComm cn(6), co(6);
  balance(f_new, BalanceOptions::new_config(), cn);
  balance(f_old, BalanceOptions::old_config(), co);
  EXPECT_EQ(f_new.gather(), f_old.gather());
  EXPECT_LE(cn.stats().bytes, co.stats().bytes);
}

TEST(BalanceParallel, ReportsPlausiblePhaseTimes) {
  Rng rng(9);
  auto f = random_forest(Connectivity<2>::brick({3, 2}), 4, 2, rng, 6, 0.3);
  f.partition_uniform();
  SimComm comm(4);
  const auto rep = balance(f, BalanceOptions::new_config(), comm);
  EXPECT_GE(rep.t_local_balance, 0.0);
  EXPECT_GE(rep.t_notify, 0.0);
  EXPECT_GE(rep.t_query_response, 0.0);
  EXPECT_GE(rep.t_local_rebalance, 0.0);
  EXPECT_GT(rep.total(), 0.0);
  EXPECT_GT(rep.subtree.hash_queries, 0u);
}

}  // namespace
}  // namespace octbal
