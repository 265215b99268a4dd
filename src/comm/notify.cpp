#include "comm/notify.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace octbal {
namespace {

/// Reject a per-rank array that does not have one entry per rank of
/// \p comm: the algorithms index it by rank.
void check_per_rank(const char* what, std::size_t n, const SimComm& comm) {
  if (n != static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument(std::string(what) + ": " + std::to_string(n) +
                                " per-rank lists for " +
                                std::to_string(comm.size()) + " ranks");
  }
}

}  // namespace

std::vector<std::vector<int>> notify_naive(
    SimComm& comm, const std::vector<std::vector<int>>& receivers) {
  OBS_SPAN("notify_naive");
  check_per_rank("notify_naive", receivers.size(), comm);
  const int p = comm.size();
  // N <- Allgather(|R|); R <- Allgatherv(R, N, O); scan (Figure 12).
  std::vector<std::int32_t> counts(p);
  for (int q = 0; q < p; ++q)
    counts[q] = static_cast<std::int32_t>(receivers[q].size());
  counts = comm.allgather(counts);
  std::vector<std::vector<std::int32_t>> lists(p);
  for (int q = 0; q < p; ++q)
    lists[q].assign(receivers[q].begin(), receivers[q].end());
  std::vector<std::size_t> offsets;
  const std::vector<std::int32_t> all = comm.allgatherv(lists, &offsets);
  std::vector<std::vector<int>> senders(p);
  for (int q = 0; q < p; ++q) {
    for (std::size_t i = offsets[q]; i < offsets[q + 1]; ++i) {
      senders[all[i]].push_back(q);
    }
  }
  return senders;
}

std::vector<std::vector<int>> notify_ranges(
    SimComm& comm, const std::vector<std::vector<int>>& receivers,
    int max_ranges) {
  OBS_SPAN("notify_ranges");
  check_per_rank("notify_ranges", receivers.size(), comm);
  if (max_ranges < 1) {
    throw std::invalid_argument("notify_ranges: max_ranges = " +
                                std::to_string(max_ranges) +
                                " must be >= 1");
  }
  const int p = comm.size();
  // Encode each sorted receiver list as <= max_ranges intervals by keeping
  // the largest gaps as separators; the closure over-covers, so the sender
  // lists are supersets (zero-length messages downstream).
  std::vector<std::int32_t> enc(static_cast<std::size_t>(p) * 2 * max_ranges,
                                -1);
  par::parallel_for_ranks(p, [&](int q) {
    const auto& rcv = receivers[q];
    if (rcv.empty()) return;
    // Find the (max_ranges - 1) largest gaps between consecutive receivers.
    std::vector<std::pair<int, std::size_t>> gaps;  // (gap size, index after)
    for (std::size_t i = 0; i + 1 < rcv.size(); ++i) {
      const int g = rcv[i + 1] - rcv[i];
      if (g > 1) gaps.push_back({g, i + 1});
    }
    std::sort(gaps.begin(), gaps.end(), std::greater<>());
    if (static_cast<int>(gaps.size()) > max_ranges - 1)
      gaps.resize(max_ranges - 1);
    std::vector<std::size_t> cuts;
    for (const auto& g : gaps) cuts.push_back(g.second);
    std::sort(cuts.begin(), cuts.end());
    // Emit the intervals.
    std::size_t begin = 0;
    int slot = 0;
    auto* row = &enc[static_cast<std::size_t>(q) * 2 * max_ranges];
    for (std::size_t c = 0; c <= cuts.size(); ++c) {
      const std::size_t end = c < cuts.size() ? cuts[c] : rcv.size();
      row[2 * slot] = rcv[begin];
      row[2 * slot + 1] = rcv[end - 1];
      ++slot;
      begin = end;
    }
  });
  enc = comm.allgather(enc);
  std::vector<std::vector<int>> senders(p);
  for (int q = 0; q < p; ++q) {
    const auto* row = &enc[static_cast<std::size_t>(q) * 2 * max_ranges];
    for (int s = 0; s < max_ranges; ++s) {
      const std::int32_t lo = row[2 * s], hi = row[2 * s + 1];
      if (lo < 0) break;
      for (std::int32_t t = lo; t <= hi; ++t) senders[t].push_back(q);
    }
  }
  return senders;
}

std::vector<std::vector<int>> notify_dc(
    SimComm& comm, const std::vector<std::vector<int>>& receivers) {
  OBS_SPAN("notify_dc");
  check_per_rank("notify_dc", receivers.size(), comm);
  const int p = comm.size();
  // Knowledge at rank q: pairs (receiver, original sender).  The invariant
  // (Eq. 2): after round l, rank q holds exactly the pairs whose receiver
  // is congruent to q modulo 2^l.
  struct Pair {
    std::int32_t receiver;
    std::int32_t sender;
  };
  std::vector<std::vector<Pair>> know(p);
  for (int q = 0; q < p; ++q) {
    for (int r : receivers[q])
      know[q].push_back({static_cast<std::int32_t>(r),
                         static_cast<std::int32_t>(q)});
  }
  int levels = 0;
  while ((1 << levels) < p) ++levels;
  comm.metrics().scalar("notify/rounds").add(0, levels);

  for (int l = 0; l < levels; ++l) {
    OBS_SPAN("notify_round");
    const int bit = 1 << l;
    const int mod = bit << 1;
    // Post: each rank forwards the half of its knowledge whose receivers
    // belong to the complementary residue class mod 2^(l+1).
    par::parallel_for_ranks(p, [&](int q) {
      const int other_class = (q ^ bit) & (mod - 1);
      std::vector<Pair> ship, keep;
      for (const Pair& pr : know[q]) {
        if ((pr.receiver & (mod - 1)) == other_class) {
          ship.push_back(pr);
        } else {
          keep.push_back(pr);
        }
      }
      know[q].swap(keep);
      int target = q ^ bit;
      if (target >= p) {
        // The canonical peer does not exist: re-route to the class
        // representative 2^(l+1) below (p xor 2^l >= P rule of Section V).
        target = (q ^ bit) - mod;
      }
      if (target < 0) {
        // The complementary class has no member below P: the pairs are
        // vacuous (no such receiver rank exists).
        assert(ship.empty());
        return;
      }
      comm.send_items<Pair>(q, target, ship);
    });
    comm.deliver();
    par::parallel_for_ranks(p, [&](int q) {
      for (const SimMessage& m : comm.recv_all(q)) {
        const auto items = SimComm::decode_items<Pair>(m);
        know[q].insert(know[q].end(), items.begin(), items.end());
      }
    });
  }

  std::vector<std::vector<int>> senders(p);
  par::parallel_for_ranks(p, [&](int q) {
    for (const Pair& pr : know[q]) {
      assert(pr.receiver == q);
      senders[q].push_back(pr.sender);
    }
    std::sort(senders[q].begin(), senders[q].end());
    senders[q].erase(std::unique(senders[q].begin(), senders[q].end()),
                     senders[q].end());
  });
  return senders;
}

std::vector<std::vector<int>> notify(NotifyAlgo algo, SimComm& comm,
                                     const std::vector<std::vector<int>>& receivers,
                                     int max_ranges) {
  switch (algo) {
    case NotifyAlgo::kNaive:
      return notify_naive(comm, receivers);
    case NotifyAlgo::kRanges:
      return notify_ranges(comm, receivers, max_ranges);
    case NotifyAlgo::kNotify:
      return notify_dc(comm, receivers);
  }
  return {};
}

}  // namespace octbal
