#pragma once
/// \file delta_balance.hpp
/// \brief Incremental 2:1 re-balance of a churned forest: instead of
/// re-running the full one-pass pipeline after every refine/coarsen batch,
/// re-balance only the tree runs that hold an octant the batch created,
/// and propagate the ripple outward in push rounds until a global fixed
/// point.  The result is byte-identical to a full balance() of the same
/// forest (same leaves, same per-rank arrays), at a fraction of the
/// modeled communication.
///
/// Precondition: the forest was 2:1-balanced (at the same condition k)
/// before the churn batch, and any coarsening in the batch used the
/// 2:1-safe veto (Forest::coarsen with balance_k = k).  Under these two
/// conditions a monotonicity argument closes the push-only scheme:
///
///   * A leaf created by refinement is finer than the pre-batch leaf it
///     replaced, so against any *unchanged* leaf it can only be the fine
///     side of a violation (if it were the coarse side at gap >= 2, the
///     coarser pre-batch parent would have been at gap >= 3 against the
///     same unchanged leaf — a pre-batch violation).  The same argument
///     applies inductively to octants created by the delta rounds.
///   * A veto'd coarsen never creates a violation at all (the veto checks
///     every pre-sweep leaf overlapping the parent's insulation layer).
///
/// So only one direction of information flow is ever needed: each newly
/// created octant *pushes* itself, as an auxiliary exterior constraint, to
/// the owners of its insulation-layer pieces; no rank ever has to ask "did
/// anything near me change".  Both re-balance steps below are the stages
/// the full pipeline runs (forest/span.hpp).  The pass runs in three steps:
///
///   1. Each rank validates its share of the dirty log against its leaves
///      and re-balances every run holding a surviving entry whole (the
///      full pipeline's local balance, restricted to those runs, settles
///      the intra-run ripple in one shot).
///   2. Push rounds: the leaves created so far are announced; receivers
///      apply the constraints with the insulation-grouped mechanism of the
///      full pipeline's phase 4 (only the leaves a constraint violates are
///      refined, from seeds).  From round 1 on, the created leaves also
///      constrain their own run.  The leaves a round creates are the next
///      round's frontier.
///   3. The rounds terminate when a charged allreduce reports no work
///      anywhere; runs that never receive a constraint are fixed points of
///      local balance and are provably left byte-identical.

#include <stdexcept>
#include <string>

#include "forest/balance.hpp"

namespace octbal {

namespace detail {

/// Push rounds delta_balance() runs before it gives up.  Every round's
/// created leaves are finer than the leaves they split, so a forest meeting
/// the precondition settles long before this.
template <int D>
inline constexpr int delta_round_cap = 4 * max_level<D> + 8;

/// Throws std::logic_error once push round \p round exceeds the cap.
template <int D>
void check_delta_round(int round) {
  if (round > delta_round_cap<D>) {
    throw std::logic_error("delta_balance: no fixed point after " +
                           std::to_string(delta_round_cap<D>) +
                           " push rounds (was the forest balanced before "
                           "the churn batch?)");
  }
}

}  // namespace detail

/// Traffic and work of one delta_balance() call.  All counts are
/// deterministic and machine independent.
struct DeltaBalanceReport {
  std::uint64_t dirty_logged = 0;     ///< raw dirty-log entries consumed
  std::uint64_t dirty_validated = 0;  ///< entries still present as leaves
  /// Leaves of the runs step 1 re-balanced whole, counted before the
  /// re-balance and summed over the ranks.
  std::uint64_t region_octants = 0;
  std::uint64_t constraints_sent = 0; ///< pushed wire octants (network only)
  std::uint64_t octants_created = 0;  ///< leaves the re-balance added
  int rounds = 0;                     ///< push rounds with any work
  std::uint64_t octants_before = 0;
  std::uint64_t octants_after = 0;
  CommStats comm;  ///< exchange + termination-allreduce traffic
};

/// Re-balance the octants of \p f that refine/coarsen created since the
/// last clear_dirty() to the full 2:1 condition of \p opt.  Consumes
/// and clears the dirty log.  Only opt.k and opt.subtree are honored: the
/// query/response switches do not apply (the push scheme has no query
/// phase, and its rounds always apply constraints from seeds), and the
/// announcements travel as direct point-to-point sends closed by the
/// per-round termination allreduce (an NBX-style sparse exchange — senders
/// know their destinations, so no notify algorithm is needed either).
/// Byte-identical to balance(f, opt, comm) under the precondition above.
///
/// Throws std::invalid_argument when opt.k lies outside [0, D], before
/// anything is consumed.  Throws std::logic_error when the push rounds find
/// no fixed point within detail::delta_round_cap rounds, which a forest meeting
/// the precondition never reaches; the forest is then partly re-balanced.
template <int D>
DeltaBalanceReport delta_balance(Forest<D>& f, const BalanceOptions& opt,
                                 SimComm& comm);

}  // namespace octbal
