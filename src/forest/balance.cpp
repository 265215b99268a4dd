#include "forest/balance.hpp"

#include <algorithm>
#include <map>

#include "core/key.hpp"
#include "core/lambda.hpp"
#include "core/neighborhood.hpp"
#include "core/seeds.hpp"
#include "forest/halo.hpp"
#include "forest/span.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace octbal {
namespace {

using detail::apply_groups;
using detail::every_run;
using detail::LeafGroups;
using detail::rebalance_runs;

/// Wire format for one response item: a payload octant expressed in the
/// query octant's tree frame (possibly exterior), tagged with its query.
template <int D>
struct WirePair {
  WireOct<D> query;
  std::int32_t level;
  std::array<coord_t, D> x;

  /// The payload octant, in the query's tree.
  TreeOct<D> item() const {
    return from_wire(WireOct<D>{query.tree, level, x});
  }

  friend bool operator==(const WirePair&, const WirePair&) = default;
  friend auto operator<=>(const WirePair&, const WirePair&) = default;
};

/// Work counters of one rank's response loop (BalanceReport fields).
struct ResponseWork {
  std::uint64_t visited = 0;     ///< leaves examined by the piece scans
  std::uint64_t decisions = 0;   ///< balanced_pair calls
  std::uint64_t seed_calls = 0;  ///< balance_seeds calls
};

/// Answer one insulation piece \p nb of the query \p w (octant \p q) from
/// \p leaves, the rank's leaves meeting the piece (RankKeys::overlapping),
/// and append the response items to \p out — the raw octants finer than q,
/// or, with \p seeds, the seeds of every leaf at least two levels finer
/// than q that q is not balanced with.
///
/// Seeds are decided once per sibling family (DESIGN.md §2.18): for a
/// disjoint pair with size(o) <= size(q)/4, balanced_pair(o, q) and
/// balance_seeds(o, q) depend on o only through parent(o), so the first
/// leaf of a family stands for all of its leaf siblings.  In Morton order
/// the families already handled along the current path form a stack, so
/// each family is decided exactly once per piece.
template <int D>
void respond_piece(KeySpan leaves, const TreeNeighbor<D>& nb,
                   const WireOct<D>& w, const Octant<D>& q, int k, bool seeds,
                   std::vector<WirePair<D>>& out, ResponseWork& work) {
  std::array<okey_t, max_level<D> + 1> families;
  int depth = 0;
  for (const okey_t leaf : leaves) {
    ++work.visited;
    const int level = key_level<D>(leaf);
    if (!seeds) {
      if (level <= q.level) continue;  // too coarse to split q
      const Octant<D> o = nb.xform.apply(key_oct<D>(leaf));
      out.push_back(WirePair<D>{w, o.level, o.x});
      continue;
    }
    if (level <= q.level + 1) continue;  // 2:1 already
    const okey_t fam = key_parent<D>(leaf);
    while (depth > 0 && !key_contains(families[depth - 1], fam)) --depth;
    if (depth > 0 && families[depth - 1] == fam) continue;  // decided
    families[depth++] = fam;
    // Map from the piece's own tree frame into q's frame (a pure
    // translation for brick connectivities, a signed permutation plus
    // translation for general 2D gluings); it maps families to families.
    const Octant<D> o = nb.xform.apply(key_oct<D>(leaf));
    ++work.decisions;
    if (balanced_pair(o, q, k)) continue;  // O(1) decision
    ++work.seed_calls;
    for (const auto& s : balance_seeds(o, q, k)) {
      out.push_back(WirePair<D>{w, s.level, s.x});
    }
  }
}

}  // namespace

template <int D>
BalanceReport balance(Forest<D>& f, const BalanceOptions& opt, SimComm& comm) {
  OBS_SPAN("balance");
  const int P = f.num_ranks();
  const int k = balance_condition<D>(opt);
  const auto& conn = f.connectivity();
  BalanceReport rep;
  rep.octants_before = f.global_num_octants();
  const CommStats stats0 = comm.stats();
  double modeled0 = comm.modeled_time();
  const double barrier0 = comm.barrier_seconds();
  // Critical-path phase labels: every deliver()/collective below is
  // attributed to the balance step that issued it; restored on exit so
  // nested pipelines (ghost, nodes) keep their own attribution.
  const std::string phase0 = comm.phase();

  // Registry entries are resolved before the parallel regions (the by-name
  // lookup takes a lock; per-rank add()s do not).
  obs::Metrics& met = comm.metrics();
  obs::Counter& c_queries = met.counter("balance/queries_sent");
  obs::Counter& c_responses = met.counter("balance/response_items");
  obs::Counter& c_visited = met.counter("balance/response_visited");
  obs::Counter& c_decisions = met.counter("balance/response_decisions");
  obs::Counter& c_seed_calls = met.counter("balance/seed_calls");
  obs::Counter& c_leaves = met.counter("balance/leaves_after");
  obs::Counter& c_owner_lookups = met.counter("balance/owner_lookups");
  obs::Counter& c_owner_cache = met.counter("balance/owner_cache_hits");
  obs::Counter& c_owner_window = met.counter("balance/owner_window_scans");
  obs::Counter& c_owner_full = met.counter("balance/owner_full_searches");
  obs::Counter& c_owner_cmp = met.counter("balance/owner_comparisons");
  obs::Histogram& h_queries_per_dest =
      met.histogram("balance/queries_per_dest");

  // Rank bodies run concurrently between barriers (par::parallel_for_ranks),
  // so every per-rank measurement lands in a preassigned slot and is
  // reduced serially afterwards — no shared counters on the hot path.
  std::vector<double> rank_secs(P);
  std::vector<SubtreeBalanceStats> rank_subtree(P);
  std::vector<std::uint64_t> rank_count(P);
  std::vector<OwnerScanStats> rank_owner(P);
  std::vector<ResponseWork> rank_work(P);
  const auto reduce_secs = [&]() {
    double worst = 0;
    for (int r = 0; r < P; ++r) worst = std::max(worst, rank_secs[r]);
    return worst;
  };

  // Memory accounting: staging buffers live until the function returns;
  // their scopes release then.  Each rank body binds its slot (MemRank) so
  // the core kernels' scratch scopes attribute to the rank that ran them.
  std::vector<obs::MemScope> qsend_mem(P), qrecv_mem(P), rrecv_mem(P);

  // ------------------------------------------------------------------
  // Phase 1: Local balance — per rank, per (tree, contiguous run).
  // ------------------------------------------------------------------
  {
    OBS_SPAN("local_balance");
    obs::mem_set_phase("balance/local");
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("local_balance", r);
      const obs::MemRank mem_rank(r);
      Timer t;
      auto& mine = f.local(r);
      auto runs = every_run(mine);
      rebalance_runs(mine, runs, opt.subtree, k, &rank_subtree[r]);
      rank_secs[r] = t.seconds();
    });
    f.refresh_markers();
    rep.t_local_balance = reduce_secs();
  }

  // ------------------------------------------------------------------
  // Phase 2a: build queries — who must hear about which of my octants.
  // ------------------------------------------------------------------
  std::vector<std::vector<std::vector<WireOct<D>>>> qsend(P);
  std::vector<std::vector<int>> receivers(P);
  {
    OBS_SPAN("build_queries");
    std::fill(rank_count.begin(), rank_count.end(), 0);
    // Fault injection (audit self-tests): drop the last insulation-layer
    // offset from the query walk, silently losing one neighbor direction.
    const auto& all_offs = full_offsets<D>();
    const std::span<const std::array<int, D>> offs(
        all_offs.data(),
        all_offs.size() -
            (opt.inject == FaultInjection::kSkipInsulationNeighbor ? 1 : 0));
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("build_queries", r);
      Timer t;
      qsend[r].assign(P, {});
      std::vector<std::size_t> last_mark(P, static_cast<std::size_t>(-1));
      const auto& mine = f.local(r);
      // Owner resolution for this rank's stream of insulation pieces:
      // per-octant envelope windows + a one-entry last-hit cache replace
      // the per-offset O(log P) binary searches (DESIGN.md §2.10).  Pieces
      // inside the tree and inside this rank's curve span need no owner
      // search and no query at all (the bulk of the octants on a large
      // partition — p4est likewise touches only near-boundary octants in
      // this phase).
      HaloOwnerWalk<D> walk(f, r);
      std::uint64_t queued = 0;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        walk.visit(mine[i], offs, [&](const TreeNeighbor<D>&,
                                      bool same_frame, int r0, int r1) {
          for (int dest = r0; dest <= r1; ++dest) {
            if (f.marker(dest) == f.marker(dest + 1)) continue;  // empty rank
            // Same rank in the identity frame: covered by the local
            // subtree balance.  A piece that *wrapped* around a periodic
            // boundary back into the same tree is a different coordinate
            // frame and still needs the query/response path.
            if (dest == r && same_frame) continue;
            if (last_mark[dest] == i) continue;  // already queued
            last_mark[dest] = i;
            qsend[r][dest].push_back(to_wire(mine[i]));
            ++queued;
          }
        });
      }
      rank_count[r] = queued;
      rank_owner[r] = walk.stats();
      for (int dest = 0; dest < P; ++dest) {
        if (!qsend[r][dest].empty()) {
          receivers[r].push_back(dest);
          h_queries_per_dest.record(r, qsend[r][dest].size());
        }
      }
      std::size_t staged = 0;
      for (const auto& v : qsend[r]) staged += v.size() * sizeof(WireOct<D>);
      qsend_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
      rank_secs[r] = t.seconds();
    });
    for (int r = 0; r < P; ++r) {
      rep.queries_sent += rank_count[r];
      c_queries.add(r, rank_count[r]);
      rep.owner_scan += rank_owner[r];
      c_owner_lookups.add(r, rank_owner[r].lookups);
      c_owner_cache.add(r, rank_owner[r].cache_hits);
      c_owner_window.add(r, rank_owner[r].window_scans);
      c_owner_full.add(r, rank_owner[r].full_searches);
      c_owner_cmp.add(r, rank_owner[r].comparisons);
    }
    rep.t_query_response += reduce_secs();
  }

  // ------------------------------------------------------------------
  // Phase 2b: Notify — reverse the asymmetric pattern (Section V).
  // ------------------------------------------------------------------
  double notify_model_time = 0;
  {
    OBS_SPAN("notify");
    comm.set_phase("balance/notify");
    const CommStats before = comm.stats();
    const double mbefore = comm.modeled_time();
    const double bbefore = comm.barrier_seconds();
    Timer t;
    (void)notify(opt.notify_algo, comm, receivers, opt.notify_max_ranges);
    notify_model_time = comm.modeled_time() - mbefore;
    rep.t_notify = std::max(0.0, t.seconds() -
                                     (comm.barrier_seconds() - bbefore)) +
                   notify_model_time;
    rep.notify_comm.messages = comm.stats().messages - before.messages;
    rep.notify_comm.bytes = comm.stats().bytes - before.bytes;
  }

  // ------------------------------------------------------------------
  // Phase 2c: exchange the queries (self-queries bypass the network).
  // The phase timer pauses across the deliver() barrier, so only the
  // pack/unpack compute is attributed here.
  // ------------------------------------------------------------------
  std::vector<std::vector<std::pair<int, std::vector<WireOct<D>>>>> qrecv(P);
  {
    OBS_SPAN("exchange_queries");
    comm.set_phase("balance/queries");
    Timer t;
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("post_queries", r);
      for (int dest = 0; dest < P; ++dest) {
        if (qsend[r][dest].empty()) continue;
        if (dest == r) {
          qrecv[r].push_back({r, qsend[r][dest]});
        } else {
          comm.send_items<WireOct<D>>(
              r, dest, std::span<const WireOct<D>>(qsend[r][dest]));
        }
      }
    });
    t.pause();
    comm.deliver();
    t.resume();
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("recv_queries", r);
      for (const auto& m : comm.recv_all(r)) {
        qrecv[r].push_back({m.from, SimComm::decode_items<WireOct<D>>(m)});
      }
      std::size_t staged = 0;
      for (const auto& [from, items] : qrecv[r]) {
        staged += items.size() * sizeof(WireOct<D>);
      }
      qrecv_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
    });
    rep.t_query_response += t.seconds();
  }

  // ------------------------------------------------------------------
  // Phase 3: Response — decide which octants might split each query and
  // answer with raw octants (old) or seeds (new).
  // ------------------------------------------------------------------
  std::vector<std::vector<std::pair<int, std::vector<WirePair<D>>>>> rrecv(P);
  {
    OBS_SPAN("response");
    comm.set_phase("balance/response");
    std::fill(rank_count.begin(), rank_count.end(), 0);
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("response", r);
      const obs::MemRank mem_rank(r);
      Timer t;
      // The rank's leaves as packed keys, one run per tree: a piece that
      // misses the run is dropped by two comparisons, and only a piece that
      // leaves the query's tree goes through the connectivity.
      const RankKeys<D> keys(f.local(r));
      // Counted locally and stored once: rank bodies run concurrently, and
      // per-leaf writes into rank_work[r] would share cache lines between
      // the threads running neighboring ranks.
      ResponseWork work;
      std::map<int, std::vector<WirePair<D>>> reply;
      const auto& offs = full_offsets<D>();
      for (const auto& [from, queries] : qrecv[r]) {
        auto& out = reply[from];
        for (const auto& w : queries) {
          const TreeOct<D> q = from_wire(w);
          for_each_halo_piece<D>(
              conn, q, offs, [&](const TreeNeighbor<D>& nb, bool) {
                const KeySpan leaves = keys.overlapping(nb.tree, nb.oct);
                if (!leaves.empty()) {
                  respond_piece(leaves, nb, w, q.oct, k, opt.seed_response,
                                out, work);
                }
              });
        }
        // Seeds from different response octants overlap; deduplicate.
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        rank_count[r] += out.size();
      }
      rank_work[r] = work;
      for (auto& [dest, items] : reply) {
        if (items.empty()) continue;
        if (dest == r) {
          rrecv[r].push_back({r, std::move(items)});
        } else {
          comm.send_items<WirePair<D>>(r, dest,
                                       std::span<const WirePair<D>>(items));
        }
      }
      rank_secs[r] = t.seconds();
    });
    Timer t;
    t.pause();
    comm.deliver();
    t.resume();
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("recv_responses", r);
      for (const auto& m : comm.recv_all(r)) {
        rrecv[r].push_back({m.from, SimComm::decode_items<WirePair<D>>(m)});
      }
      std::size_t staged = 0;
      for (const auto& [from, items] : rrecv[r]) {
        staged += items.size() * sizeof(WirePair<D>);
      }
      rrecv_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
    });
    for (int r = 0; r < P; ++r) {
      rep.response_items += rank_count[r];
      c_responses.add(r, rank_count[r]);
      rep.response_visited += rank_work[r].visited;
      rep.response_decisions += rank_work[r].decisions;
      rep.seed_calls += rank_work[r].seed_calls;
      c_visited.add(r, rank_work[r].visited);
      c_decisions.add(r, rank_work[r].decisions);
      c_seed_calls.add(r, rank_work[r].seed_calls);
    }
    rep.t_query_response += reduce_secs() + t.seconds();
  }

  // ------------------------------------------------------------------
  // Phase 4: Local rebalance.
  // ------------------------------------------------------------------
  {
    OBS_SPAN("local_rebalance");
    obs::mem_set_phase("balance/rebalance");
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("local_rebalance", r);
      const obs::MemRank mem_rank(r);
      Timer t;
      auto& mine = f.local(r);
      if (opt.grouped_rebalance) {
        // New scheme: reconstruct Tk ∩ q from the seeds, per query octant,
        // with q as the subtree root — work proportional to the output.
        LeafGroups<D> groups;
        for (const auto& [from, items] : rrecv[r]) {
          for (const auto& it : items) {
            groups[from_wire(it.query)].push_back(it.item().oct);
          }
        }
        // Fault injection (audit self-tests): fold the response senders
        // through a polynomial hash *in delivery order* — a deliberately
        // non-commutative, delivery-order-sensitive "reduction" — and drop
        // the group of the largest query record when the fold lands odd.
        // Under canonical delivery this is a deterministic (wrong) result;
        // under scrambled delivery the fold, and hence the forest, changes
        // with the order, which is exactly what the scramble invariant must
        // detect.
        if (opt.inject == FaultInjection::kOrderDependentReduce &&
            !groups.empty()) {
          std::uint64_t acc = 0x2012;
          for (const auto& [from, items] : rrecv[r]) {
            acc = acc * 0x100000001b3ull +
                  static_cast<std::uint64_t>(from + 1);
          }
          // splitmix finalizer: the decision bit depends on sender *order*,
          // not just the sender multiset.
          acc = (acc ^ (acc >> 30)) * 0xbf58476d1ce4e5b9ull;
          acc = (acc ^ (acc >> 27)) * 0x94d049bb133111ebull;
          if ((acc ^ (acc >> 31)) & 1) {
            groups.erase(std::max_element(
                groups.begin(), groups.end(),
                [](const auto& a, const auto& b) {
                  return to_wire(a.first) < to_wire(b.first);
                }));
          }
        }
        apply_groups(mine, groups, opt.subtree, k, &rank_subtree[r]);
      } else {
        // Old scheme: merge every received octant as an auxiliary
        // (possibly exterior) constraint and re-balance whole partitions.
        auto aux = every_run(mine);
        for (const auto& [from, items] : rrecv[r]) {
          for (const auto& it : items) {
            const TreeOct<D> o = it.item();
            aux[o.tree].push_back(o.oct);
          }
        }
        rebalance_runs(mine, aux, opt.subtree, k, &rank_subtree[r]);
      }
      rank_secs[r] = t.seconds();
    });
    f.refresh_markers();
    rep.t_local_rebalance = reduce_secs();
  }
  // Serial-balance hash/search counters (previously reachable only through
  // BalanceReport in the perf-guard tests): per-rank obs counters, so they
  // land in every --json run report and stay diffable by octbal_inspect.
  obs::Counter& c_hash_queries = met.counter("balance/hash_queries");
  obs::Counter& c_hash_probes = met.counter("balance/hash_probes");
  obs::Counter& c_hash_rehash = met.counter("balance/hash_rehash_probes");
  obs::Counter& c_bsearch = met.counter("balance/binary_searches");
  obs::Counter& c_sorted = met.counter("balance/sorted_octants");
  for (int r = 0; r < P; ++r) {
    rep.subtree += rank_subtree[r];
    c_leaves.add(r, f.local(r).size());
    c_hash_queries.add(r, rank_subtree[r].hash_queries);
    c_hash_probes.add(r, rank_subtree[r].hash_probes);
    c_hash_rehash.add(r, rank_subtree[r].hash_rehash_probes);
    c_bsearch.add(r, rank_subtree[r].binary_searches);
    c_sorted.add(r, rank_subtree[r].sorted_octants);
  }
  comm.set_phase(phase0);

  rep.comm.messages = comm.stats().messages - stats0.messages -
                      rep.notify_comm.messages;
  rep.comm.bytes = comm.stats().bytes - stats0.bytes - rep.notify_comm.bytes;
  // Attribute the modeled communication time of the query/response
  // exchanges to that phase; notify accounted for its own share above.
  rep.t_query_response += (comm.modeled_time() - modeled0) - notify_model_time;
  rep.t_barrier = comm.barrier_seconds() - barrier0;
  rep.octants_after = f.global_num_octants();
  return rep;
}

#define OCTBAL_INSTANTIATE(D)                                       \
  template BalanceReport balance<D>(Forest<D>&, const BalanceOptions&, \
                                    SimComm&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
