#include "forest/repartition.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/insulation.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace octbal {
namespace {

/// Opens the "partition" phase at entry — on the communicator, which
/// forwards it to the memory accountant, or on the accountant alone — and
/// restores the caller's label on exit, also when a weight functor throws.
struct PartitionPhase {
  explicit PartitionPhase(SimComm* c)
      : comm(c), phase0(c != nullptr ? c->phase() : obs::mem_phase()) {
    set("partition");
  }
  ~PartitionPhase() { set(phase0); }
  void set(const std::string& name) const {
    comm != nullptr ? comm->set_phase(name) : obs::mem_set_phase(name);
  }
  SimComm* comm;
  std::string phase0;
};

/// Global SFC index of every rank's first leaf: size P + 1, from 0 to the
/// global octant count.
template <int D>
std::vector<std::size_t> count_cuts(const Forest<D>& f) {
  const int p = f.num_ranks();
  std::vector<std::size_t> cuts(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) cuts[r + 1] = cuts[r] + f.local(r).size();
  return cuts;
}

/// The weighted cut rule: rank b-1 ends at the first global index whose
/// inclusive prefix weight exceeds total·b/P (the last rank at the end),
/// which bounds every rank's weight by total/P plus one maximum-weight
/// octant.  Each rank sums its own weights; after a scan over the P sums,
/// rank q's leaves carry the prefix weights (base[q], base[q+1]], so it
/// holds exactly the cuts whose targets lie in [base[q], base[q+1]), and
/// only the ranks holding a cut rescan their leaves to place it.  Fills
/// the weight fields of \p rep.
template <int D, class Weight>
std::vector<std::size_t> weighted_cuts(const Forest<D>& f,
                                       const Weight& weight,
                                       RepartitionReport& rep) {
  const int p = f.num_ranks();
  const std::size_t np = static_cast<std::size_t>(p);
  std::vector<std::uint64_t> base(np + 1, 0), maxw(np, 0);
  par::parallel_for_ranks(p, [&](int r) {
    OBS_SPAN_RANK("repartition_weights", r);
    std::uint64_t sum = 0, m = 0;
    for (const auto& to : f.local(r)) {
      const std::uint64_t w = weight(to);
      sum += w;
      m = std::max(m, w);
    }
    base[r + 1] = sum;
    maxw[r] = m;
  });
  for (int r = 0; r < p; ++r) {
    base[r + 1] += base[r];
    rep.max_octant_weight = std::max(rep.max_octant_weight, maxw[r]);
  }
  const std::uint64_t total = base[p];
  rep.total_weight = total;
  const std::vector<std::size_t> offset = count_cuts(f);
  // cuts[b] is where rank b-1 ends and at[b] the weight before it.  With
  // no weight at all no prefix exceeds a target: every cut is the end.
  std::vector<std::size_t> cuts(np + 1, offset[p]);
  std::vector<std::uint64_t> at(np + 1, total);
  cuts[0] = at[0] = 0;
  if (total > 0) {
    // total·b/P >= x (rounded down, x whole) iff b >= ceil(x·P / total).
    const auto first_target_at = [&](std::uint64_t x) {
      return static_cast<int>((x * np + total - 1) / total);
    };
    par::parallel_for_ranks(p, [&](int q) {
      int b = std::max(1, first_target_at(base[q]));
      const int end = first_target_at(base[q + 1]);
      if (b >= end) return;
      OBS_SPAN_RANK("repartition_weights", q);
      std::uint64_t run = base[q];
      for (std::size_t j = 0; b < end; ++j) {
        const std::uint64_t w = weight(f.local(q)[j]);
        for (; b < end && run + w > total * static_cast<std::uint64_t>(b) / np;
             ++b) {
          cuts[b] = offset[q] + j;
          at[b] = run;
        }
        run += w;
      }
    });
  }
  rep.weight_per_rank.resize(np);
  for (int r = 0; r < p; ++r) rep.weight_per_rank[r] = at[r + 1] - at[r];
  return cuts;
}

/// The current cuts as the partition markers state them — the index a
/// real migration planner consults, not a count of the per-rank arrays:
/// the lower bound of each marker in the global leaf order, found in the
/// first non-empty rank whose last leaf reaches it.  On a consistent
/// forest the two agree; when the index is stale (the kStaleMarkers
/// channel) the exchange is planned against the wrong ownership and the
/// misrouted traffic shows up in the comm flight log, where the postmortem
/// toolchain can bisect it.
template <int D>
std::vector<std::size_t> marker_cuts(const Forest<D>& f) {
  const int p = f.num_ranks();
  const std::vector<std::size_t> offset = count_cuts(f);
  std::vector<std::size_t> cuts = offset;
  const auto before = [](const TreeOct<D>& to, const GlobalPos& m) {
    return position_of(to) < m;
  };
  for (int b = 1, q = 0; b < p; ++b) {  // markers ascend, so q only advances
    const GlobalPos& m = f.marker(b);
    while (q < p && (f.local(q).empty() || before(f.local(q).back(), m))) ++q;
    if (q == p) {
      cuts[b] = offset[p];
      continue;
    }
    const auto& leaves = f.local(q);
    cuts[b] = offset[q] + static_cast<std::size_t>(
                              std::lower_bound(leaves.begin(), leaves.end(),
                                               m, before) -
                              leaves.begin());
  }
  return cuts;
}

/// Move the leaves from the ranks' current ranges onto \p cuts.  \p plan is
/// the old partition as the planner sees it; it decides the marker shift,
/// the moved count and the traffic: one message per non-empty (old owner,
/// new owner) interval intersection, sender-major.  The leaves move by the
/// actual arrays: every rank whose range changed rebuilds from the slices
/// of the old arrays it now covers, and the bytes each rank sends are
/// charged to it as kRepartition staging meanwhile (when \p account).
/// \p refresh false is the kStaleMarkers fault channel: the data moves and
/// the traffic is charged, but the previous partition's index stays
/// installed — the "moved the data, forgot the index" bug the
/// repartition/preserves_content invariant exists to catch.
template <int D>
void migrate(Forest<D>& f, const std::vector<std::size_t>& plan,
             const std::vector<std::size_t>& cuts, SimComm* comm,
             bool account, bool refresh, RepartitionReport& rep) {
  const int p = f.num_ranks();
  for (int b = 1; b < p; ++b) {
    rep.max_marker_shift = std::max<std::uint64_t>(
        rep.max_marker_shift,
        plan[b] > cuts[b] ? plan[b] - cuts[b] : cuts[b] - plan[b]);
  }
  if (cuts == plan) return;

  using Bounds = std::vector<std::size_t>;
  // The first interval of \p bounds that ends past position x.
  const auto first_past = [](const Bounds& bounds, std::size_t x) {
    return static_cast<int>(
        std::upper_bound(bounds.begin() + 1, bounds.end(), x) -
        (bounds.begin() + 1));
  };
  // |[a[i], a[i+1]) ∩ [b[j], b[j+1])|.
  const auto overlap = [](const Bounds& a, int i, const Bounds& b, int j) {
    const std::size_t lo = std::max(a[i], b[j]);
    const std::size_t hi = std::min(a[i + 1], b[j + 1]);
    return hi > lo ? hi - lo : 0;
  };
  for (int s = 0; s < p; ++s) {
    for (int t = first_past(cuts, plan[s]); t < p && cuts[t] < plan[s + 1];
         ++t) {
      const std::size_t n = overlap(plan, s, cuts, t);
      if (t == s || n == 0) continue;
      const std::size_t bytes = n * sizeof(TreeOct<D>);
      rep.octants_moved += n;
      rep.migration.messages += 1;
      rep.migration.bytes += bytes;
      if (comm != nullptr) comm->send(s, t, std::vector<std::uint8_t>(bytes));
    }
  }
  if (comm != nullptr) comm->deliver();

  const Bounds old = count_cuts(f);
  std::vector<std::vector<TreeOct<D>>> held(static_cast<std::size_t>(p));
  std::vector<obs::MemScope> staged(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) {
    if (old[s] == cuts[s] && old[s + 1] == cuts[s + 1]) continue;
    held[s] = std::move(f.local(s));
    if (account) {
      staged[s].set_slot(s, obs::MemTag::kRepartition,
                         (held[s].size() - overlap(old, s, cuts, s)) *
                             sizeof(TreeOct<D>));
    }
  }
  par::parallel_for_ranks(p, [&](int t) {
    OBS_SPAN_RANK("repartition_move", t);
    const obs::MemRank mem_rank(t);
    if (comm != nullptr) comm->recv_all(t);
    if (old[t] == cuts[t] && old[t + 1] == cuts[t + 1]) return;
    auto& next = f.local(t);
    next.clear();
    next.reserve(cuts[t + 1] - cuts[t]);
    for (int s = first_past(old, cuts[t]); s < p && old[s] < cuts[t + 1];
         ++s) {
      const std::size_t n = overlap(old, s, cuts, t);
      if (n == 0) continue;
      const auto from =
          held[s].begin() +
          static_cast<std::ptrdiff_t>(std::max(old[s], cuts[t]) - old[s]);
      next.insert(next.end(), from, from + static_cast<std::ptrdiff_t>(n));
    }
  });
  staged.clear();
  held.clear();
  if (refresh) f.refresh_markers();
}

}  // namespace

template <int D>
RepartitionReport repartition(Forest<D>& f, const RepartitionOptions& opt,
                              SimComm* comm,
                              const RepartitionWeightFn<D>& custom) {
  if (opt.weight == RepartitionWeight::kCustom && !custom) {
    throw std::invalid_argument(
        "repartition: RepartitionWeight::kCustom needs a weight functor");
  }
  OBS_SPAN("repartition");
  const PartitionPhase phase(comm);
  RepartitionReport rep;
  const auto unit = [](const TreeOct<D>&) { return std::uint64_t{1}; };
  // Octants whose insulation layer is clipped by the tree boundary cost
  // less query traffic, interior octants the full 3^D.
  const auto insulation = [](const TreeOct<D>& to) {
    return insulation_size(to.oct);
  };
  const std::vector<std::size_t> cuts =
      opt.weight == RepartitionWeight::kOctants ? weighted_cuts(f, unit, rep)
      : opt.weight == RepartitionWeight::kInsulation
          ? weighted_cuts(f, insulation, rep)
          : weighted_cuts(f, custom, rep);
  const bool refresh = opt.inject != FaultInjection::kStaleMarkers;
  migrate(f, marker_cuts(f), cuts, comm, /*account=*/true, refresh, rep);
  return rep;
}

/// Forest::partition_weighted lives here, beside the kernel it shares: the
/// split is planned against the ranks' leaf counts and, like every Forest
/// method, charges memory only for the leaf arrays.
template <int D>
void Forest<D>::partition_weighted(
    const std::function<int(const TreeOct<D>&)>& weight, SimComm* comm) {
  RepartitionReport rep;
  const auto checked = [&](const TreeOct<D>& to) {
    const int w = weight(to);
    if (w < 0) {
      throw std::invalid_argument("partition_weighted: negative weight");
    }
    return static_cast<std::uint64_t>(w);
  };
  const std::vector<std::size_t> cuts = weighted_cuts(*this, checked, rep);
  std::optional<PartitionPhase> phase;
  if (comm != nullptr) phase.emplace(comm);
  migrate(*this, count_cuts(*this), cuts, comm, /*account=*/false,
          /*refresh=*/true, rep);
}

template <int D>
RepartitionReport apply_cuts(Forest<D>& f,
                             const std::vector<std::size_t>& cuts,
                             SimComm* comm) {
  const std::size_t n = f.global_num_octants();
  if (cuts.size() != static_cast<std::size_t>(f.num_ranks()) + 1 ||
      cuts.front() != 0 || cuts.back() != n ||
      !std::is_sorted(cuts.begin(), cuts.end())) {
    throw std::invalid_argument(
        "apply_cuts: need P + 1 = " + std::to_string(f.num_ranks() + 1) +
        " monotone cuts from 0 to the global octant count " +
        std::to_string(n) + ", got " + std::to_string(cuts.size()));
  }
  RepartitionReport rep;
  const PartitionPhase phase(comm);
  migrate(f, count_cuts(f), cuts, comm, /*account=*/true, /*refresh=*/true,
          rep);
  return rep;
}

#define OCTBAL_INSTANTIATE(D)                                          \
  template RepartitionReport repartition<D>(                           \
      Forest<D>&, const RepartitionOptions&, SimComm*,                 \
      const RepartitionWeightFn<D>&);                                  \
  template void Forest<D>::partition_weighted(                         \
      const std::function<int(const TreeOct<D>&)>&, SimComm*);         \
  template RepartitionReport apply_cuts<D>(                            \
      Forest<D>&, const std::vector<std::size_t>&, SimComm*);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
