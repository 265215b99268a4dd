#pragma once
/// \file repartition_reference.hpp
/// \brief Test-only reference for the weighted re-split: gather every leaf,
/// weigh them one at a time, cut an n-sized prefix-sum array, sweep the
/// per-(old owner, new owner) migration matrix and reassign every rank
/// from the gathered copy.
///
/// This is the straightforward serial algorithm that the per-rank kernel in
/// forest/repartition.cpp must reproduce byte for byte: the same cuts,
/// per-rank leaves, markers and report, and the same traffic (messages,
/// bytes, send order, hence modeled time and flight digests).  The
/// insulation weight is counted with neighbor_in, independently of the
/// closed form.  It exists only so test_repartition.cpp has an oracle.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/neighborhood.hpp"
#include "forest/repartition.hpp"

namespace octbal::reference {

template <int D>
std::uint64_t octant_weight(const TreeOct<D>& to, RepartitionWeight kind,
                            const RepartitionWeightFn<D>& custom) {
  switch (kind) {
    case RepartitionWeight::kOctants:
      return 1;
    case RepartitionWeight::kInsulation: {
      std::uint64_t w = 1;
      Octant<D> n;
      for (const auto& off : full_offsets<D>()) {
        if (neighbor_in<D>(to.oct, off, root_octant<D>(), &n)) ++w;
      }
      return w;
    }
    case RepartitionWeight::kCustom:
      return custom(to);
  }
  return 1;
}

/// The prefix-sum cut rule over the gathered weights.
inline std::vector<std::size_t> prefix_cuts(
    const std::vector<std::uint64_t>& prefix, int p) {
  const std::size_t n = prefix.size();
  const std::uint64_t total = n ? prefix.back() : 0;
  std::vector<std::size_t> cuts(static_cast<std::size_t>(p) + 1, 0);
  std::size_t begin = 0;
  for (int r = 0; r < p; ++r) {
    const std::uint64_t cut = total * static_cast<std::uint64_t>(r + 1) /
                              static_cast<std::uint64_t>(p);
    std::size_t end = static_cast<std::size_t>(
        std::upper_bound(prefix.begin() + static_cast<std::ptrdiff_t>(begin),
                         prefix.end(), cut) -
        prefix.begin());
    if (r == p - 1) end = n;
    cuts[r + 1] = end;
    begin = end;
  }
  return cuts;
}

/// Sweep the migration matrix between \p old_cuts and \p cuts, charge it
/// sender-major, and reassign every rank from \p all.
template <int D>
void apply(Forest<D>& f, const std::vector<TreeOct<D>>& all,
           const std::vector<std::size_t>& old_cuts,
           const std::vector<std::size_t>& cuts, SimComm* comm, bool refresh,
           RepartitionReport& rep) {
  const int p = f.num_ranks();
  for (int b = 1; b < p; ++b) {
    const std::size_t a = old_cuts[b], c = cuts[b];
    rep.max_marker_shift =
        std::max<std::uint64_t>(rep.max_marker_shift, a > c ? a - c : c - a);
  }
  if (cuts == old_cuts) return;
  std::vector<std::vector<std::uint64_t>> moved(
      static_cast<std::size_t>(p), std::vector<std::uint64_t>(p, 0));
  int so = 0, sn = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    while (i >= old_cuts[so + 1]) ++so;
    while (i >= cuts[sn + 1]) ++sn;
    if (so != sn) {
      moved[so][sn] += sizeof(TreeOct<D>);
      ++rep.octants_moved;
    }
  }
  for (int s = 0; s < p; ++s) {
    for (int t = 0; t < p; ++t) {
      if (moved[s][t]) {
        rep.migration.messages += 1;
        rep.migration.bytes += moved[s][t];
      }
    }
  }
  if (comm != nullptr) {
    const std::string phase0 = comm->phase();
    comm->set_phase("partition");
    for (int s = 0; s < p; ++s) {
      for (int t = 0; t < p; ++t) {
        if (moved[s][t]) {
          comm->send(s, t, std::vector<std::uint8_t>(moved[s][t]));
        }
      }
    }
    comm->deliver();
    for (int r = 0; r < p; ++r) comm->recv_all(r);
    comm->set_phase(phase0);
  }
  for (int r = 0; r < p; ++r) {
    f.local(r).assign(all.begin() + static_cast<std::ptrdiff_t>(cuts[r]),
                      all.begin() + static_cast<std::ptrdiff_t>(cuts[r + 1]));
  }
  if (refresh) f.refresh_markers();
}

/// repartition(): old cuts resolved through the partition markers.
template <int D>
RepartitionReport repartition(Forest<D>& f, const RepartitionOptions& opt,
                              SimComm* comm,
                              const RepartitionWeightFn<D>& custom = {}) {
  RepartitionReport rep;
  const int p = f.num_ranks();
  const std::vector<TreeOct<D>> all = f.gather();
  const std::size_t n = all.size();
  std::vector<std::size_t> old_cuts(static_cast<std::size_t>(p) + 1, 0);
  old_cuts[p] = n;
  for (int r = 1; r < p; ++r) {
    old_cuts[r] = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), f.marker(r),
                         [](const TreeOct<D>& to, const GlobalPos& m) {
                           return position_of(to) < m;
                         }) -
        all.begin());
  }
  std::vector<std::uint64_t> prefix(n);
  std::uint64_t total = 0, maxw = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = octant_weight<D>(all[i], opt.weight, custom);
    maxw = std::max(maxw, w);
    total += w;
    prefix[i] = total;
  }
  rep.total_weight = total;
  rep.max_octant_weight = maxw;
  const std::vector<std::size_t> cuts = prefix_cuts(prefix, p);
  rep.weight_per_rank.assign(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    rep.weight_per_rank[r] = (cuts[r + 1] ? prefix[cuts[r + 1] - 1] : 0) -
                             (cuts[r] ? prefix[cuts[r] - 1] : 0);
  }
  apply(f, all, old_cuts, cuts, comm,
        opt.inject != FaultInjection::kStaleMarkers, rep);
  return rep;
}

/// Forest::partition_weighted: old cuts from the per-rank leaf counts.
/// The one intended difference from the original gather version: a split
/// that moves nothing delivers no (empty) round.
template <int D>
void partition_weighted(Forest<D>& f,
                        const std::function<int(const TreeOct<D>&)>& weight,
                        SimComm* comm) {
  const int p = f.num_ranks();
  const std::vector<TreeOct<D>> all = f.gather();
  std::vector<std::uint64_t> prefix(all.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    total += static_cast<std::uint64_t>(weight(all[i]));
    prefix[i] = total;
  }
  std::vector<std::size_t> old_cuts(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) old_cuts[r + 1] = old_cuts[r] + f.local(r).size();
  RepartitionReport rep;
  apply(f, all, old_cuts, prefix_cuts(prefix, p), comm, /*refresh=*/true, rep);
}

}  // namespace octbal::reference
