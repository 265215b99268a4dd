#pragma once
/// \file balance.hpp
/// \brief The parallel one-pass 2:1 balance algorithm (Sections II-B, III,
/// IV, V combined), in both the pre-paper ("old") and the paper's ("new")
/// configuration.
///
/// Phases, following Section II-B:
///   1. Local balance   — every rank balances its own partition, one
///                        subtree per (tree, contiguous run).
///   2. Query           — every rank finds, for each of its octants r, the
///                        ranks whose partitions overlap the insulation
///                        layer I(r), and sends r to them.  The asymmetric
///                        pattern is reversed with a Notify variant first.
///   3. Response        — for each received query r, a rank determines
///                        which of its octants might cause r to split, and
///                        answers with either the raw octants (old) or seed
///                        octants (new, Section IV).
///   4. Local rebalance — old: merge the received octants as auxiliary
///                        exterior constraints and re-balance whole
///                        partitions; new: reconstruct Tk(o) ∩ r per query
///                        octant from its seeds and merge.
///
/// Every old/new choice is independently switchable, which is what the
/// ablation benchmarks exercise.

#include <stdexcept>
#include <string>

#include "comm/notify.hpp"
#include "comm/simcomm.hpp"
#include "core/balance_subtree.hpp"
#include "forest/forest.hpp"

namespace octbal {

/// Deliberate pipeline defects for the audit subsystem's self-tests
/// (src/audit): the fuzzer must catch each of these on randomized
/// workloads, proving the invariant checks have teeth.  Always kNone in
/// production configurations.
enum class FaultInjection : std::uint8_t {
  kNone = 0,
  /// Phase 2 skips the last insulation-layer offset when building queries,
  /// losing every remote constraint that reaches a rank only through that
  /// neighbor piece — a realistic "missed one neighbor direction" bug.
  kSkipInsulationNeighbor = 1,
  /// Phase 4 folds the response senders through a non-commutative hash *in
  /// delivery order* and drops one query group when the fold lands odd — a
  /// deliberately delivery-order-sensitive reduction.  The audit battery's
  /// scramble invariant must catch it (src/audit self-tests), the same way
  /// kSkipInsulationNeighbor proves the balance invariants have teeth.
  kOrderDependentReduce = 2,
  /// The repartition pass migrates the octants and charges the traffic,
  /// but skips the refresh_markers() rebuild, leaving the previous
  /// partition's markers installed — a "moved the data, forgot the index"
  /// bug.  The audit battery's repartition/preserves_content invariant
  /// must catch it (see forest/repartition.cpp).
  kStaleMarkers = 3,
};

struct BalanceOptions {
  int k = 0;  ///< balance condition; 0 means full corner balance (k = D)
  SubtreeAlgo subtree = SubtreeAlgo::kNew;  ///< Section III choice
  bool seed_response = true;   ///< Section IV: seeds instead of raw octants
  bool grouped_rebalance = true;  ///< Section IV: per-query reconstruction
  NotifyAlgo notify_algo = NotifyAlgo::kNotify;  ///< Section V choice
  int notify_max_ranges = 8;
  /// Fault injection for audit self-tests; kNone for real runs.
  FaultInjection inject = FaultInjection::kNone;

  static BalanceOptions old_config() {
    return BalanceOptions{0, SubtreeAlgo::kOld, false, false,
                          NotifyAlgo::kRanges, 8};
  }
  static BalanceOptions new_config() { return BalanceOptions{}; }
};

/// Timings and traffic per phase, mirroring Figures 15 and 17.  Times are
/// the per-rank maximum of measured CPU time (the BSP critical path), plus
/// the α–β model time for the communication the phase performed.
struct BalanceReport {
  double t_local_balance = 0;
  double t_notify = 0;
  double t_query_response = 0;
  double t_local_rebalance = 0;
  /// Wall time spent inside SimComm::deliver() barriers during the run —
  /// serial engine work excluded from the per-phase CPU attribution above
  /// (the communication itself is charged through the α–β model instead).
  double t_barrier = 0;
  double total() const {
    return t_local_balance + t_notify + t_query_response + t_local_rebalance;
  }
  CommStats comm;                 ///< traffic of query+response exchanges
  CommStats notify_comm;          ///< traffic of the pattern reversal
  std::uint64_t octants_before = 0;
  std::uint64_t octants_after = 0;
  std::uint64_t queries_sent = 0;    ///< query octants shipped (incl. self)
  std::uint64_t response_items = 0;  ///< seeds or raw octants answered
  /// Response-loop work: leaves the piece scans examined, balanced_pair
  /// decisions made (one per sibling family and query piece) and
  /// balance_seeds calls (one per unbalanced family and query piece).
  std::uint64_t response_visited = 0;
  std::uint64_t response_decisions = 0;
  std::uint64_t seed_calls = 0;
  SubtreeBalanceStats subtree;    ///< accumulated serial-balance counters
  OwnerScanStats owner_scan;      ///< phase-2 windowed owner resolution
};

/// The balance condition \p opt asks for, with 0 resolved to full corner
/// balance (k = D).  Throws std::invalid_argument when opt.k lies outside
/// [0, D]; balance() and delta_balance() check it on entry.
template <int D>
int balance_condition(const BalanceOptions& opt) {
  if (opt.k < 0 || opt.k > D) {
    throw std::invalid_argument("balance condition k = " +
                                std::to_string(opt.k) + " is outside [0, " +
                                std::to_string(D) + "]");
  }
  return opt.k == 0 ? D : opt.k;
}

/// Run one-pass 2:1 balance over the forest.  The forest is modified in
/// place (every rank's array is replaced by its balanced version; the
/// partition ranges are unchanged).  Throws std::invalid_argument when
/// opt.k lies outside [0, D].
template <int D>
BalanceReport balance(Forest<D>& forest, const BalanceOptions& opt,
                      SimComm& comm);

}  // namespace octbal
