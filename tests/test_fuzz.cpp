/// \file test_fuzz.cpp
/// \brief Randomized end-to-end fuzzing of the distributed balance: many
/// random combinations of connectivity shape, periodicity, rank count,
/// balance condition, pipeline configuration and refinement pattern, each
/// checked against the serial reference.  Complements the structured
/// sweeps with configuration-space coverage.

#include <gtest/gtest.h>

#include "forest/balance.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Fuzz, RandomConfigurations2D) {
  Rng master(0xF00D);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t seed = master.next();
    Rng rng(seed);
    // Random configuration.
    const std::array<int, 2> dims{1 + static_cast<int>(rng.below(3)),
                                  1 + static_cast<int>(rng.below(2))};
    const std::array<bool, 2> periodic{rng.chance(0.3), rng.chance(0.3)};
    const int ranks = 1 + static_cast<int>(rng.below(7));
    const int k = 1 + static_cast<int>(rng.below(2));
    const int lmax = 3 + static_cast<int>(rng.below(3));
    const double density = 0.2 + rng.uniform() * 0.3;

    BalanceOptions opt;
    opt.k = k;
    opt.subtree = rng.chance(0.5) ? SubtreeAlgo::kNew : SubtreeAlgo::kOld;
    opt.seed_response = rng.chance(0.7);
    opt.grouped_rebalance = rng.chance(0.7);
    opt.notify_algo = rng.chance(0.5)
                          ? NotifyAlgo::kNotify
                          : (rng.chance(0.5) ? NotifyAlgo::kRanges
                                             : NotifyAlgo::kNaive);
    (void)rng.chance(0.3);  // retired dimension; keeps the stream's draws

    auto f = random_forest(Connectivity<2>::brick(dims, periodic), ranks, 1,
                           rng, lmax, density);
    if (rng.chance(0.5)) {
      f.partition_uniform();
    } else if (rng.chance(0.5)) {
      f.partition_weighted(
          [&](const TreeOct<2>& to) { return 1 + to.oct.level; });
    }
    const auto want = forest_balance_serial(f.gather(), f.connectivity(), k);

    SimComm comm(ranks);
    if (rng.chance(0.3)) comm.set_scramble(seed);
    balance(f, opt, comm);
    ASSERT_EQ(f.gather(), want)
        << "seed=" << seed << " dims=" << dims[0] << "x" << dims[1]
        << " per=" << periodic[0] << periodic[1] << " ranks=" << ranks
        << " k=" << k;
    ASSERT_TRUE(f.is_valid()) << "seed=" << seed;
  }
}

TEST(Fuzz, RandomGeneralConnectivities) {
  // Rings and Möbius bands (2D), rotated rings (3D), random orientations.
  Rng master(0xCAFE);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint64_t seed = master.next();
    Rng rng(seed);
    const int ranks = 1 + static_cast<int>(rng.below(4));
    if (rng.chance(0.5)) {
      const int n = 1 + static_cast<int>(rng.below(3));
      const auto conn =
          Connectivity<2>::ring(n, static_cast<std::uint8_t>(rng.below(2)));
      ASSERT_TRUE(conn.validate());
      const int k = 1 + static_cast<int>(rng.below(2));
      auto f = random_forest(conn, ranks, 1, rng, 4, 0.35);
      f.partition_uniform();
      const auto want = forest_balance_serial(f.gather(), conn, k);
      SimComm comm(ranks);
      BalanceOptions opt = BalanceOptions::new_config();
      opt.k = k;
      balance(f, opt, comm);
      EXPECT_EQ(f.gather(), want) << "seed=" << seed << " k=" << k;
      EXPECT_TRUE(forest_is_balanced(f.gather(), conn, k)) << seed;
    } else {
      const auto conn = Connectivity<3>::ring(
          1 + static_cast<int>(rng.below(2)),
          static_cast<std::uint8_t>(rng.below(8)));
      ASSERT_TRUE(conn.validate());
      auto f = random_forest(conn, ranks, 1, rng, 3, 0.35);
      f.partition_uniform();
      const auto want = forest_balance_serial(f.gather(), conn, 3);
      SimComm comm(ranks);
      balance(f, BalanceOptions::new_config(), comm);
      EXPECT_EQ(f.gather(), want) << "seed=" << seed;
    }
  }
}

TEST(Fuzz, RandomConfigurations3D) {
  Rng master(0xBEEF);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t seed = master.next();
    Rng rng(seed);
    const std::array<int, 3> dims{1 + static_cast<int>(rng.below(2)),
                                  1 + static_cast<int>(rng.below(2)), 1};
    const int ranks = 1 + static_cast<int>(rng.below(5));
    const int k = 1 + static_cast<int>(rng.below(3));

    BalanceOptions opt;
    opt.k = k;
    opt.subtree = rng.chance(0.5) ? SubtreeAlgo::kNew : SubtreeAlgo::kOld;
    opt.seed_response = rng.chance(0.7);
    opt.grouped_rebalance = rng.chance(0.7);

    auto f =
        random_forest(Connectivity<3>::brick(dims), ranks, 1, rng, 3, 0.35);
    f.partition_uniform();
    const auto want = forest_balance_serial(f.gather(), f.connectivity(), k);
    SimComm comm(ranks);
    balance(f, opt, comm);
    ASSERT_EQ(f.gather(), want) << "seed=" << seed << " k=" << k;
  }
}

}  // namespace
}  // namespace octbal
