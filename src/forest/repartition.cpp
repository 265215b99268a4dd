#include "forest/repartition.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/insulation.hpp"
#include "obs/mem.hpp"

namespace octbal {
namespace {

template <int D>
std::uint64_t octant_weight(const TreeOct<D>& to, RepartitionWeight kind,
                            const RepartitionWeightFn<D>& custom,
                            std::vector<Octant<D>>& scratch) {
  switch (kind) {
    case RepartitionWeight::kOctants:
      return 1;
    case RepartitionWeight::kInsulation:
      // 1 + the in-domain insulation-envelope size: octants whose envelope
      // is clipped by the tree boundary cost less query traffic, interior
      // octants the full 3^D - 1 pieces.
      scratch.clear();
      insulation_pieces(to.oct, root_octant<D>(), scratch);
      return 1 + static_cast<std::uint64_t>(scratch.size());
    case RepartitionWeight::kCustom:
      assert(custom);
      return custom(to);
  }
  return 1;
}

/// Shared tail of repartition() and apply_cuts(): record the marker shift,
/// sweep out the per-(old owner, new owner) migration matrix, charge it to
/// the α–β model under the "partition" phase bracket (mirroring
/// Forest::set_all — one message per communicating pair, sized by the
/// octant bytes that change hands, visible in `octbal_inspect critpath`
/// next to the balance phases), and re-assign the leaf ranges.
/// \p refresh false is the kStaleMarkers fault channel: the data moves
/// and the traffic is charged, but the marker rebuild is skipped — the
/// previous partition's index stays installed, the classic "moved the
/// data, forgot the index" bug the repartition/preserves_content
/// invariant exists to catch.
template <int D>
void apply_cuts_impl(Forest<D>& f, const std::vector<TreeOct<D>>& all,
                     const std::vector<std::size_t>& old_cuts,
                     const std::vector<std::size_t>& cuts, SimComm* comm,
                     bool refresh, RepartitionReport& rep) {
  const int p = f.num_ranks();
  const std::size_t n = all.size();
  for (int b = 1; b < p; ++b) {
    const std::size_t a = old_cuts[b], c = cuts[b];
    rep.max_marker_shift =
        std::max<std::uint64_t>(rep.max_marker_shift, a > c ? a - c : c - a);
  }
  if (cuts == old_cuts) return;

  const obs::MemScope moved_mem(
      obs::MemTag::kRepartition,
      static_cast<std::size_t>(p) * p * sizeof(std::uint64_t));
  std::vector<std::vector<std::uint64_t>> moved(
      static_cast<std::size_t>(p), std::vector<std::uint64_t>(p, 0));
  {
    int so = 0, sn = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (i >= old_cuts[so + 1]) ++so;
      while (i >= cuts[sn + 1]) ++sn;
      if (so != sn) {
        moved[so][sn] += sizeof(TreeOct<D>);
        ++rep.octants_moved;
      }
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

}  // namespace

double slack_total(const std::vector<SimComm::PhaseCost>& phases,
                   std::string_view prefix) {
  double s = 0;
  for (const auto& ph : phases) {
    if (ph.name.size() >= prefix.size() &&
        ph.name.compare(0, prefix.size(), prefix) == 0) {
      s += ph.slack;
    }
  }
  return s;
}

template <int D>
RepartitionReport repartition(Forest<D>& f, const RepartitionOptions& opt,
                              SimComm* comm,
                              const RepartitionWeightFn<D>& custom) {
  RepartitionReport rep;
  const int p = f.num_ranks();
  const std::vector<TreeOct<D>> all = f.gather();
  const std::size_t n = all.size();
  const obs::MemScope gather_mem(obs::MemTag::kRepartition,
                                 n * sizeof(TreeOct<D>));

  // Current cuts as global SFC indices: rank r owns [cuts[r], cuts[r+1]).
  // Resolved through the partition markers — the index a real migration
  // planner consults to learn current ownership — not by a god's-eye walk
  // of the per-rank vectors.  On a consistent forest the two agree
  // exactly; when the index is stale (the kStaleMarkers channel) the
  // exchange is planned against the wrong ownership and the misrouted
  // traffic shows up in the comm flight log, where the postmortem
  // toolchain can bisect it.
  std::vector<std::size_t> old_cuts(p + 1, 0);
  old_cuts[p] = n;
  for (int r = 1; r < p; ++r) {
    old_cuts[r] = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), f.marker(r),
                         [](const TreeOct<D>& to, const GlobalPos& m) {
                           return position_of(to) < m;
                         }) -
        all.begin());
  }

  std::vector<Octant<D>> scratch;
  std::vector<std::uint64_t> prefix(n);
  std::uint64_t total = 0, maxw = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = octant_weight<D>(all[i], opt.weight, custom,
                                             scratch);
    maxw = std::max(maxw, w);
    total += w;
    prefix[i] = total;  // inclusive prefix sum
  }
  rep.total_weight = total;
  rep.max_octant_weight = maxw;
  // The partition_weighted cut rule: rank r ends at the first index whose
  // prefix weight exceeds total * (r+1) / p, which bounds every rank's
  // weight by total/p + one maximum-weight octant.
  std::vector<std::size_t> cuts(p + 1, 0);
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
  rep.weight_per_rank.assign(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    rep.weight_per_rank[r] = (cuts[r + 1] ? prefix[cuts[r + 1] - 1] : 0) -
                             (cuts[r] ? prefix[cuts[r] - 1] : 0);
  }

  const bool refresh = opt.inject != FaultInjection::kStaleMarkers;
  apply_cuts_impl(f, all, old_cuts, cuts, comm, refresh, rep);
  return rep;
}

template <int D>
RepartitionReport apply_cuts(Forest<D>& f,
                             const std::vector<std::size_t>& cuts,
                             SimComm* comm) {
  RepartitionReport rep;
  const int p = f.num_ranks();
  if (cuts.size() != static_cast<std::size_t>(p) + 1) {
    throw std::invalid_argument("apply_cuts: " + std::to_string(cuts.size()) +
                                " cuts for " + std::to_string(p) +
                                " ranks (need P + 1)");
  }
  if (cuts.front() != 0 || cuts.back() != f.global_num_octants()) {
    throw std::invalid_argument(
        "apply_cuts: cuts must run from 0 to the global octant count " +
        std::to_string(f.global_num_octants()));
  }
  if (!std::is_sorted(cuts.begin(), cuts.end())) {
    throw std::invalid_argument("apply_cuts: cuts are not monotone");
  }
  const std::vector<TreeOct<D>> all = f.gather();
  const obs::MemScope gather_mem(obs::MemTag::kRepartition,
                                 all.size() * sizeof(TreeOct<D>));
  std::vector<std::size_t> old_cuts(p + 1, 0);
  for (int r = 0; r < p; ++r) old_cuts[r + 1] = old_cuts[r] + f.local(r).size();
  apply_cuts_impl(f, all, old_cuts, cuts, comm, /*refresh=*/true, rep);
  return rep;
}

#define OCTBAL_INSTANTIATE(D)                                          \
  template RepartitionReport repartition<D>(                           \
      Forest<D>&, const RepartitionOptions&, SimComm*,                 \
      const RepartitionWeightFn<D>&);                                  \
  template RepartitionReport apply_cuts<D>(                            \
      Forest<D>&, const std::vector<std::size_t>&, SimComm*);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
