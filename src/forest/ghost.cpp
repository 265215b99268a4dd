#include "forest/ghost.hpp"

#include <algorithm>
#include <string>

#include "core/balance_check.hpp"
#include "core/neighborhood.hpp"
#include "forest/halo.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace octbal {

namespace {

/// Exact adjacency test of a candidate ghost \p g against the rank's leaves
/// \p mine, across tree boundaries: for each balance-offset piece of g, the
/// leaves meeting the piece are one key range of the piece tree's run, and
/// the first one sharing a boundary object of codimension in [1, k] with g
/// decides.
template <int D>
bool adjacent_to_rank(const Connectivity<D>& conn, const TreeOct<D>& g, int k,
                      const RankKeys<D>& mine) {
  return for_each_halo_piece<D>(
      conn, g, balance_offsets<D>(k),
      [&](const TreeNeighbor<D>& nb, bool same_frame) {
        for (const okey_t leaf : mine.overlapping(nb.tree, nb.oct)) {
          Octant<D> m = key_oct<D>(leaf);
          if (!same_frame) m = nb.xform.apply(m);
          const int c = adjacency_codim(g.oct, m);
          if (c >= 1 && c <= k) return true;
        }
        return false;
      });
}

}  // namespace

template <int D>
GhostLayer<D> build_ghost_layer(const Forest<D>& f, int k, SimComm& comm,
                                NotifyAlgo notify_algo) {
  OBS_SPAN("ghost");
  require_balance_k<D>(k, "build_ghost_layer");
  const int P = f.num_ranks();
  const auto& conn = f.connectivity();
  GhostLayer<D> ghost;
  ghost.per_rank.resize(P);
  const std::string phase0 = comm.phase();

  obs::Metrics& met = comm.metrics();
  obs::Counter& c_candidates = met.counter("ghost/candidates_sent");
  obs::Counter& c_entries = met.counter("ghost/entries");
  obs::Counter& c_owner_lookups = met.counter("ghost/owner_lookups");
  obs::Counter& c_owner_cache = met.counter("ghost/owner_cache_hits");
  obs::Counter& c_owner_window = met.counter("ghost/owner_window_scans");
  obs::Counter& c_owner_full = met.counter("ghost/owner_full_searches");
  obs::Counter& c_owner_cmp = met.counter("ghost/owner_comparisons");

  // Sender side: my leaf o is a (conservative) ghost candidate for every
  // rank owning part of a same-size neighbor piece of o.  Owner resolution
  // is the balance Query phase's halo owner walk (DESIGN.md §2.10): pieces
  // inside the rank's own span are self-candidates and visit nothing.
  std::vector<std::vector<std::vector<WireOct<D>>>> send(P);
  std::vector<std::vector<int>> receivers(P);
  std::vector<OwnerScanStats> rank_owner(P);
  // Candidate staging + accepted entries, per rank (kGhost); the scopes
  // release when the build returns — the snapshot keeps the peak.
  std::vector<obs::MemScope> stage_mem(P);
  const auto& offs = balance_offsets<D>(k);
  par::parallel_for_ranks(P, [&](int r) {
    OBS_SPAN_RANK("ghost_candidates", r);
    send[r].assign(P, {});
    std::vector<std::size_t> last(P, static_cast<std::size_t>(-1));
    const auto& mine = f.local(r);
    HaloOwnerWalk<D> walk(f, r);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      walk.visit(mine[i], offs,
                 [&](const TreeNeighbor<D>&, bool, int a, int b) {
                   for (int q = a; q <= b; ++q) {
                     if (q == r || f.marker(q) == f.marker(q + 1)) continue;
                     if (last[q] == i) continue;
                     last[q] = i;
                     send[r][q].push_back(to_wire(mine[i]));
                   }
                 });
    }
    rank_owner[r] = walk.stats();
    for (int q = 0; q < P; ++q) {
      if (!send[r][q].empty()) {
        receivers[r].push_back(q);
        c_candidates.add(r, send[r][q].size());
      }
    }
    std::size_t staged = 0;
    for (const auto& v : send[r]) staged += v.size() * sizeof(WireOct<D>);
    stage_mem[r].set_slot(r, obs::MemTag::kGhost, staged);
  });
  for (int r = 0; r < P; ++r) {
    ghost.owner_scan += rank_owner[r];
    c_owner_lookups.add(r, rank_owner[r].lookups);
    c_owner_cache.add(r, rank_owner[r].cache_hits);
    c_owner_window.add(r, rank_owner[r].window_scans);
    c_owner_full.add(r, rank_owner[r].full_searches);
    c_owner_cmp.add(r, rank_owner[r].comparisons);
  }

  // The pattern reversal does its own exchanges; attribute them to the
  // ghost build instead of dropping them on the floor.
  comm.set_phase("ghost/notify");
  const CommStats notify0 = comm.stats();
  (void)notify(notify_algo, comm, receivers);
  ghost.notify_traffic.messages = comm.stats().messages - notify0.messages;
  ghost.notify_traffic.bytes = comm.stats().bytes - notify0.bytes;
  met.scalar("ghost/notify_msgs").add(0, ghost.notify_traffic.messages);
  met.scalar("ghost/notify_bytes").add(0, ghost.notify_traffic.bytes);

  comm.set_phase("ghost/exchange");
  const CommStats pre = comm.stats();
  par::parallel_for_ranks(P, [&](int r) {
    for (int q = 0; q < P; ++q) {
      if (send[r][q].empty()) continue;
      comm.send_items<WireOct<D>>(r, q,
                                  std::span<const WireOct<D>>(send[r][q]));
    }
  });
  comm.deliver();

  // Receiver side: exact check against the rank's own leaves, by key range.
  par::parallel_for_ranks(P, [&](int r) {
    OBS_SPAN_RANK("ghost_filter", r);
    const RankKeys<D> mine(f.local(r));
    // Filled locally and moved in once: push_back writes the vector's
    // header, and the headers of neighboring ranks share cache lines.
    std::vector<typename GhostLayer<D>::Entry> out;
    for (const auto& m : comm.recv_all(r)) {
      for (const auto& w : SimComm::decode_items<WireOct<D>>(m)) {
        const TreeOct<D> g = from_wire(w);
        if (!adjacent_to_rank(conn, g, k, mine)) continue;
        out.push_back(typename GhostLayer<D>::Entry{g, m.from});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.oct < b.oct; });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    c_entries.add(r, out.size());
    std::size_t staged = out.size() * sizeof(typename GhostLayer<D>::Entry);
    for (const auto& v : send[r]) staged += v.size() * sizeof(WireOct<D>);
    stage_mem[r].set_slot(r, obs::MemTag::kGhost, staged);
    ghost.per_rank[r] = std::move(out);
  });
  ghost.traffic.messages = comm.stats().messages - pre.messages;
  ghost.traffic.bytes = comm.stats().bytes - pre.bytes;
  comm.set_phase(phase0);
  return ghost;
}

#define OCTBAL_INSTANTIATE(D)                                                \
  template GhostLayer<D> build_ghost_layer<D>(const Forest<D>&, int,         \
                                              SimComm&, NotifyAlgo);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
