#pragma once
/// \file repartition_loop.hpp
/// \brief The repeated balance→repartition driver behind
/// bench_repartition.
///
/// The driver is a deterministic greedy controller with backtracking:
/// every round re-balances the (fixed, pre-balanced) mesh to measure the
/// partition's balance-phase slack, then either *accepts* the state (slack
/// did not increase over the best seen) or *reverts* to the best accepted
/// cuts and stops: the weighted split is deterministic, so the next
/// repartition from those cuts would reproduce the rejected split.  A
/// revert is a real migration — apply_cuts() charges it to the α–β model
/// like any other move — so the migration totals honestly include the
/// cost of the rejected experiment.  The recorded trajectory is the slack
/// of the partition the driver actually carries forward (padded with its
/// last value after a stop), which makes it monotonically non-increasing
/// by construction; with a deterministic cost model the whole loop is a
/// pure function of the mesh, so the trajectory can be pinned as a
/// machine-independent golden.

#include <algorithm>
#include <limits>
#include <string_view>
#include <vector>

#include "forest/repartition.hpp"
#include "harness.hpp"

namespace octbal {

/// Σ slack over the phases whose label starts with \p prefix — the
/// scalar objective the repartition loop drives down ("balance/" sums the
/// notify/query/response brackets and excludes the "partition" phase, so
/// migration cost never hides inside the convergence metric).
inline double slack_total(const std::vector<SimComm::PhaseCost>& phases,
                          std::string_view prefix = "balance/") {
  double s = 0;
  for (const auto& ph : phases) {
    if (ph.name.size() >= prefix.size() &&
        ph.name.compare(0, prefix.size(), prefix) == 0) {
      s += ph.slack;
    }
  }
  return s;
}

struct RepartitionLoopResult {
  RunResult run;              ///< the last accepted measured round
  std::vector<double> slack;  ///< per-round slack of the carried partition
  std::uint64_t octants_moved = 0;
  std::uint64_t migration_messages = 0;
  std::uint64_t migration_bytes = 0;
  std::uint64_t max_marker_shift = 0;
  int reverted_rounds = 0;      ///< backtracked re-splits (stops at the first)
  int rounds_to_converge = -1;  ///< first round at <= 75% of round-0 slack
};

/// Run \p rounds measured balance rounds on \p f (pre-balancing it first so
/// the mesh is fixed and slack differences are purely partition quality),
/// repartitioning with \p ropt between consecutive rounds when \p dynamic.
/// dynamic == false measures the incoming partition once and replicates
/// its (constant) slack across the trajectory, so every mode's trajectory
/// has length \p rounds and starts from the identical round-0 figure.
template <int D>
RepartitionLoopResult repartition_loop(Forest<D> f, const BalanceOptions& bopt,
                                       const RepartitionOptions& ropt,
                                       bool dynamic, int rounds) {
  const int p = f.num_ranks();
  {
    SimComm warm(p);
    warm.set_record_rounds(false);
    balance(f, bopt, warm);  // fix the mesh: rounds measure the partition
  }
  const auto current_cuts = [&] {
    std::vector<std::size_t> cuts(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r) cuts[r + 1] = cuts[r] + f.local(r).size();
    return cuts;
  };
  const auto charge = [&](const RepartitionReport& rr,
                          RepartitionLoopResult& lr) {
    lr.octants_moved += rr.octants_moved;
    lr.migration_messages += rr.migration.messages;
    lr.migration_bytes += rr.migration.bytes;
    lr.max_marker_shift = std::max(lr.max_marker_shift, rr.max_marker_shift);
  };

  RepartitionLoopResult lr;
  std::vector<std::size_t> best_cuts = current_cuts();
  double best_slack = std::numeric_limits<double>::infinity();
  const int measured = dynamic ? rounds : 1;
  for (int round = 0; round < measured; ++round) {
    SimComm comm(p);  // records rounds: the report carries the matrix
    const std::uint64_t before = f.global_num_octants();
    const BalanceReport rep = balance(f, bopt, comm);
    const double s = slack_total(comm.critical_path());
    const bool accepted = s <= best_slack;
    if (accepted) {
      best_slack = s;
      best_cuts = current_cuts();
      RunResult& r = lr.run;
      r.ranks = p;
      r.octants = before;
      r.rep = rep;
      r.modeled_time = comm.modeled_time();
      r.metrics = comm.metrics().snapshot();
      r.rounds = comm.rounds();
      r.rounds_truncated = comm.rounds_truncated();
      r.critical_path = comm.critical_path();
    } else {
      // Backtrack: re-install the best accepted cuts (charged — moving
      // the data back is real traffic).
      charge(apply_cuts(f, best_cuts, &comm), lr);
      ++lr.reverted_rounds;
    }
    lr.slack.push_back(best_slack);
    // The split is a pure function of the forest: repartitioning again
    // from the restored cuts would only repeat the rejected split.
    if (!accepted) break;
    if (dynamic && round + 1 < measured) {
      const RepartitionReport rr = repartition(f, ropt, &comm);
      charge(rr, lr);
    }
  }
  {
    const int k = bopt.k == 0 ? D : bopt.k;
    if (!f.is_valid() ||
        !forest_is_balanced(f.gather(), f.connectivity(), k)) {
      lr.run.ok = false;
      lr.run.error = "invalid or unbalanced forest after repartition loop";
    }
  }
  while (static_cast<int>(lr.slack.size()) < rounds) {
    lr.slack.push_back(lr.slack.back());
  }
  for (int i = 0; i < static_cast<int>(lr.slack.size()); ++i) {
    if (lr.slack[i] <= 0.75 * lr.slack.front()) {
      lr.rounds_to_converge = i;
      break;
    }
  }
  return lr;
}

}  // namespace octbal
