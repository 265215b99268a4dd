/// \file quickstart.cpp
/// \brief Smallest possible end-to-end use of the library: build a forest,
/// refine it adaptively, 2:1-balance it in parallel (simulated ranks), and
/// inspect the result.
///
///   ./quickstart [--ranks 4] [--level 6] [--k 2]

#include <cstdio>

#include "forest/balance.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

using namespace octbal;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int level = static_cast<int>(cli.get_int("level", 6));
  const int k = static_cast<int>(cli.get_int("k", 2));

  // A 2D forest of two quadtrees glued side by side, uniformly refined to
  // level 2, then adaptively refined: octants split at random, recursively,
  // to `level`.  The random draws are made on one rank, and the leaves are
  // then distributed over `ranks` simulated ranks.
  Rng rng(42);
  Forest<2> forest =
      random_forest(Connectivity<2>::brick({2, 1}), ranks, 2, rng, level, 0.3);
  forest.partition_uniform();
  std::printf("refined mesh:   %8llu octants on %d ranks\n",
              static_cast<unsigned long long>(forest.global_num_octants()),
              ranks);

  // 2:1 balance with the paper's new algorithms (Sections III-V).
  SimComm comm(ranks);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = k;
  const BalanceReport rep = balance(forest, opt, comm);

  std::printf("balanced mesh:  %8llu octants (k = %d balance)\n",
              static_cast<unsigned long long>(rep.octants_after), k);
  std::printf("phases [s]:     local %.4f | notify %.4f | query+response "
              "%.4f | rebalance %.4f\n",
              rep.t_local_balance, rep.t_notify, rep.t_query_response,
              rep.t_local_rebalance);
  std::printf("traffic:        %llu messages, %llu bytes (+ notify: %llu "
              "msgs, %llu bytes)\n",
              static_cast<unsigned long long>(rep.comm.messages),
              static_cast<unsigned long long>(rep.comm.bytes),
              static_cast<unsigned long long>(rep.notify_comm.messages),
              static_cast<unsigned long long>(rep.notify_comm.bytes));

  // Verify the 2:1 property the way a downstream user would.
  const bool ok = forest_is_balanced(forest.gather(), forest.connectivity(), k);
  std::printf("2:1 balanced:   %s\n", ok ? "yes" : "NO (bug!)");

  std::printf("level histogram:");
  for (const auto& [lvl, n] : level_histogram(forest)) {
    std::printf("  L%d:%llu", lvl, static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  return ok ? 0 : 1;
}
