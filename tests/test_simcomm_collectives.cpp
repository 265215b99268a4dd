/// \file test_simcomm_collectives.cpp
/// \brief Tests for the simulated collectives (allgather / allgatherv),
/// their cost accounting, and the post-balance ghost-layer guarantee that
/// numerical codes rely on.

#include <gtest/gtest.h>

#include "comm/simcomm.hpp"
#include "core/balance_check.hpp"
#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Collectives, AllgatherReplicatesAndCharges) {
  SimComm comm(4);
  const std::vector<int> mine{1, 2, 3, 4};
  const auto all = comm.allgather(mine);
  EXPECT_EQ(all, mine);
  // Volume: full replication of everyone's contribution.
  EXPECT_EQ(comm.stats().bytes, mine.size() * sizeof(int) * 3);
  EXPECT_GT(comm.stats().messages, 0u);
}

TEST(Collectives, AllgathervConcatenatesWithOffsets) {
  SimComm comm(3);
  std::vector<std::vector<int>> per_rank{{1, 2}, {}, {3, 4, 5}};
  std::vector<std::size_t> offsets;
  const auto all = comm.allgatherv(per_rank, &offsets);
  EXPECT_EQ(all, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 2, 2, 5}));
  EXPECT_EQ(comm.stats().bytes, 5 * sizeof(int) * 2);
}

TEST(Collectives, SingleRankCollectivesAreFree) {
  SimComm comm(1);
  (void)comm.allgather(std::vector<int>{7});
  EXPECT_EQ(comm.stats().bytes, 0u);
}

TEST(GhostAfterBalance, GhostsAreWithinOneLevelOfOwnLeaves) {
  // The whole point of 2:1 balance for a solver: after balancing, every
  // ghost a rank sees differs from its adjacent own leaves by at most one
  // level, so a single set of interpolation operators suffices.
  Rng rng(314);
  auto f = random_forest(Connectivity<2>::brick({2, 2}), 5, 1, rng, 6, 0.3);
  f.partition_uniform();
  SimComm comm(5);
  const int k = 2;
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = k;
  balance(f, opt, comm);
  const auto ghost = build_ghost_layer(f, k, comm);
  for (int r = 0; r < 5; ++r) {
    for (const auto& e : ghost.per_rank[r]) {
      // Every own leaf adjacent (codim <= k) to this ghost is within one
      // level of it.
      for (const auto& own : f.local(r)) {
        if (own.tree == e.oct.tree) {
          const int c = adjacency_codim(own.oct, e.oct.oct);
          if (c >= 1 && c <= k) {
            EXPECT_LE(std::abs(int(own.oct.level) - int(e.oct.oct.level)), 1)
                << to_string(own.oct) << " vs ghost " << to_string(e.oct.oct);
          }
        }
      }
    }
  }
}

TEST(GhostAfterBalance, GhostCountShrinksWithFaceOnlyCondition) {
  // k = 1 ghosts (faces only) are a subset of k = 2 ghosts.
  Rng rng(315);
  auto f = random_forest(Connectivity<2>::brick({2, 1}), 4, 2, rng, 5, 0.3);
  f.partition_uniform();
  SimComm comm(4);
  balance(f, BalanceOptions::new_config(), comm);
  const auto g1 = build_ghost_layer(f, 1, comm);
  const auto g2 = build_ghost_layer(f, 2, comm);
  for (int r = 0; r < 4; ++r) {
    EXPECT_LE(g1.per_rank[r].size(), g2.per_rank[r].size());
  }
}

}  // namespace
}  // namespace octbal
