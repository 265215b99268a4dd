#pragma once
/// \file notify.hpp
/// \brief Reversing an asymmetric communication pattern (Section V).
///
/// During one-pass balance every rank knows whom it will *send* queries to,
/// but not whom it will *receive* from.  Three algorithms recover the
/// sender lists from the receiver lists:
///
///  - Naive (Figure 12): Allgather the receiver-list lengths, Allgatherv
///    the concatenated lists, scan for the local rank.  O(P) data per rank.
///  - Ranges: encode each rank's receivers as at most R intervals and
///    Allgather the 2R interval bounds.  Cheap but inexact: the interval
///    closure may include non-senders, so the result is a *superset* and
///    zero-length messages must be tolerated downstream.
///  - Notify (Figure 13): a divide-and-conquer reversal using only
///    point-to-point messages, O(P log P) messages total with near-minimal
///    volume, generalized to non-power-of-two P by re-routing a missing
///    peer's class to the representative 2^l below (which balances the
///    duplicated messages across ranks instead of serializing them on the
///    last rank).

#include <vector>

#include "comm/simcomm.hpp"

namespace octbal {

/// Every entry point takes one per-rank list per rank of \p comm and throws
/// std::invalid_argument when the count differs from comm.size().

/// Selects the pattern-reversal algorithm used by the balance pipeline.
enum class NotifyAlgo { kNaive, kRanges, kNotify };

/// Reverse \p receivers (receivers[p] = sorted ranks p will send to) into
/// sender lists (result[p] = sorted ranks that will send to p) with the
/// naive Allgather/Allgatherv scheme of Figure 12.
std::vector<std::vector<int>> notify_naive(
    SimComm& comm, const std::vector<std::vector<int>>& receivers);

/// Range-encoded reversal with at most \p max_ranges intervals per rank.
/// The result is a superset of the true sender lists (exact when every
/// receiver list fits in max_ranges intervals).  Throws
/// std::invalid_argument when \p max_ranges < 1.
std::vector<std::vector<int>> notify_ranges(
    SimComm& comm, const std::vector<std::vector<int>>& receivers,
    int max_ranges);

/// The divide-and-conquer Notify algorithm of Figure 13: exact sender
/// lists using point-to-point messages only.
std::vector<std::vector<int>> notify_dc(
    SimComm& comm, const std::vector<std::vector<int>>& receivers);

/// Dispatch by algorithm; Ranges uses \p max_ranges.
std::vector<std::vector<int>> notify(
    NotifyAlgo algo, SimComm& comm,
    const std::vector<std::vector<int>>& receivers, int max_ranges = 8);

}  // namespace octbal
