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

/// Does a leaf of the curve range [lo, hi) of nb.tree that meets \p cell,
/// the piece nb.oct of \p o or a descendant of it, share a boundary object
/// of codimension in [1, k] with o?  The range's leaves tile it, so a cell
/// the range covers holds such a leaf exactly when the cell itself touches
/// o that way, and no leaf meeting a cell that misses o can touch o.  Only
/// a cell that straddles an end of the range is split: at most two per
/// level.
template <int D>
bool range_touches(const Octant<D>& o, const TreeNeighbor<D>& nb,
                   const Octant<D>& cell, morton_t lo, morton_t hi, int k) {
  const morton_t b = morton_key(cell);
  const morton_t e = b + (morton_t{1} << (D * size_exp(cell)));
  if (e <= lo || hi <= b) return false;
  const int c = adjacency_codim(o, nb.xform.apply(cell));
  if (c < 1 || c > k) return false;
  if (lo <= b && e <= hi) return true;
  for (int i = 0; i < num_children<D>; ++i) {
    if (range_touches(o, nb, child(cell, i), lo, hi, k)) return true;
  }
  return false;
}

/// Does rank \p q hold a leaf meeting the halo piece \p nb of \p o that
/// shares a boundary object of codimension in [1, k] with o?  Rank q's
/// leaves tile [marker(q), marker(q + 1)), so its range clipped to the
/// piece decides (DESIGN.md §2.20).
template <int D>
bool rank_touches(const Forest<D>& f, int q, const Octant<D>& o,
                  const TreeNeighbor<D>& nb, int k) {
  const TreeOct<D> piece{nb.tree, nb.oct};
  const GlobalPos lo = std::max(f.marker(q), position_of(piece));
  const GlobalPos hi = std::min(f.marker(q + 1), end_position_of(piece));
  return lo < hi && range_touches(o, nb, nb.oct, lo.key, hi.key, k);
}

}  // namespace

template <int D>
GhostLayer<D> build_ghost_layer(const Forest<D>& f, int k, SimComm& comm) {
  OBS_SPAN("ghost");
  require_balance_k<D>(k, "build_ghost_layer");
  const int P = f.num_ranks();
  GhostLayer<D> ghost;
  ghost.per_rank.resize(P);
  const std::string phase0 = comm.phase();

  obs::Metrics& met = comm.metrics();
  obs::Counter& c_entries = met.counter("ghost/entries");
  obs::Counter& c_owner_lookups = met.counter("ghost/owner_lookups");
  obs::Counter& c_owner_cache = met.counter("ghost/owner_cache_hits");
  obs::Counter& c_owner_window = met.counter("ghost/owner_window_scans");
  obs::Counter& c_owner_full = met.counter("ghost/owner_full_searches");
  obs::Counter& c_owner_cmp = met.counter("ghost/owner_comparisons");

  // Sender side: my leaf o goes to every other rank holding a leaf adjacent
  // to it.  Owner resolution is the balance Query phase's halo owner walk
  // (DESIGN.md §2.10): pieces inside the rank's own span visit nothing.
  // The decision is exact and adjacency is symmetric, so every rank
  // receives from exactly the ranks it sends to, and no pattern reversal
  // or receiver check is needed.
  std::vector<std::vector<std::vector<WireOct<D>>>> send(P);
  std::vector<OwnerScanStats> rank_owner(P);
  // Send staging + received entries, per rank (kGhost); the scopes release
  // when the build returns — the snapshot keeps the peak.
  std::vector<obs::MemScope> stage_mem(P);
  const auto& offs = balance_offsets<D>(k);
  par::parallel_for_ranks(P, [&](int r) {
    OBS_SPAN_RANK("ghost_send", r);
    send[r].assign(P, {});
    std::vector<std::size_t> last(P, static_cast<std::size_t>(-1));
    const auto& mine = f.local(r);
    HaloOwnerWalk<D> walk(f, r);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      walk.visit(mine[i], offs,
                 [&](const TreeNeighbor<D>& nb, bool, int a, int b) {
                   for (int q = a; q <= b; ++q) {
                     if (q == r || last[q] == i) continue;
                     if (!rank_touches(f, q, mine[i].oct, nb, k)) continue;
                     last[q] = i;
                     send[r][q].push_back(to_wire(mine[i]));
                   }
                 });
    }
    rank_owner[r] = walk.stats();
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

  // Receiver side: everything received is a ghost.  Delivery order may be
  // scrambled, so sort.
  par::parallel_for_ranks(P, [&](int r) {
    // Filled locally and moved in once: push_back writes the vector's
    // header, and the headers of neighboring ranks share cache lines.
    std::vector<typename GhostLayer<D>::Entry> out;
    for (const auto& m : comm.recv_all(r)) {
      for (const auto& w : SimComm::decode_items<WireOct<D>>(m)) {
        out.push_back(typename GhostLayer<D>::Entry{from_wire(w), m.from});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.oct < b.oct; });
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
                                              SimComm&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
