#include "forest/delta_balance.hpp"

#include <algorithm>
#include <iterator>
#include <map>

#include "core/lambda.hpp"
#include "core/neighborhood.hpp"
#include "core/seeds.hpp"
#include "forest/halo.hpp"
#include "forest/span.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace octbal {
namespace {

using detail::apply_groups;
using detail::LeafGroups;
using detail::rebalance_runs;
using detail::tree_runs;
using detail::TreeConstraints;

/// Group a round's exterior constraints \p aux by the local leaf of \p mine
/// they violate 2:1 against, as the seeds that reconstruct the balanced
/// subtree under that leaf — the receiver-side counterpart of the full
/// pipeline's seed response, for detail::apply_groups().  Scratch is
/// proportional to the violations, not the run.  Exact for the same reason
/// the full pipeline's grouped rebalance is: every run is internally
/// balanced when the round's constraints arrive, so the insulation property
/// confines the refinement to the constrained leaves.
///
/// Most constraints are refinement-created leaves, so siblings arrive next
/// to each other.  For a leaf q at least two levels coarser than a
/// constraint o, balanced_pair(o, q) and balance_seeds(o, q) depend on o
/// only through parent(o) (DESIGN.md §2.18), so a run of consecutive
/// siblings decides and seeds each leaf q once.  Siblings that arrive apart
/// are decided again, which only repeats identical seeds.
template <int D>
LeafGroups<D> constraint_groups(const std::vector<TreeOct<D>>& mine,
                                const TreeConstraints<D>& aux, int k) {
  LeafGroups<D> groups;
  const auto& offs = full_offsets<D>();
  const auto family = [](const Octant<D>& o) {
    return o.level > 0 ? parent(o) : o;
  };
  for (const auto& [i, j] : tree_runs(mine)) {
    const auto it = aux.find(mine[i].tree);
    if (it == aux.end()) continue;
    const auto run_lo = mine.begin() + static_cast<std::ptrdiff_t>(i);
    const auto run_hi = mine.begin() + static_cast<std::ptrdiff_t>(j);
    // The constrained leaves are found from the receiver side: every leaf a
    // constraint can violate overlaps one of the constraint's own-size
    // neighbor pieces (it is coarser by two or more levels, so it contains
    // the piece and touches the constraint).
    std::vector<std::size_t> cand;
    std::vector<std::size_t> seeded;  // leaves the current sibling run seeded
    Octant<D> piece;
    const auto& cons = it->second;
    for (std::size_t ci = 0; ci < cons.size(); ++ci) {
      const Octant<D>& o = cons[ci];
      if (ci == 0 || family(cons[ci - 1]) != family(o)) seeded.clear();
      // A coarse leaf contains many of the constraint's halo pieces, so
      // collect the candidate leaves across all pieces and deduplicate
      // before seeding — otherwise every pair is seeded once per piece.
      cand.clear();
      for (const auto& off : offs) {
        if (!neighbor_in_root<D>(o, off, &piece)) continue;
        const morton_t pb = morton_key(piece);
        const morton_t pe = pb + (morton_t{1} << (D * size_exp(piece)));
        auto lo = std::partition_point(
            run_lo, run_hi, [&](const TreeOct<D>& t) {
              return morton_key(t.oct) +
                         (morton_t{1} << (D * size_exp(t.oct))) <=
                     pb;
            });
        const auto hi =
            std::partition_point(lo, run_hi, [&](const TreeOct<D>& t) {
              return morton_key(t.oct) < pe;
            });
        for (; lo != hi; ++lo) {
          cand.push_back(static_cast<std::size_t>(lo - mine.begin()));
        }
      }
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
      for (const std::size_t qi : cand) {
        const Octant<D>& q = mine[qi].oct;
        if (o.level <= q.level + 1) continue;  // 2:1 already
        if (std::find(seeded.begin(), seeded.end(), qi) != seeded.end()) {
          continue;  // a sibling of o already seeded q
        }
        seeded.push_back(qi);
        if (balanced_pair(o, q, k)) continue;  // O(1) decision
        for (const auto& s : balance_seeds(o, q, k)) {
          groups[mine[qi]].push_back(s);
        }
      }
    }
  }
  return groups;
}

}  // namespace

template <int D>
DeltaBalanceReport delta_balance(Forest<D>& f, const BalanceOptions& opt,
                                 SimComm& comm) {
  OBS_SPAN("delta_balance");
  const int P = f.num_ranks();
  const int k = balance_condition<D>(opt);
  DeltaBalanceReport rep;
  rep.octants_before = f.global_num_octants();
  rep.dirty_logged = f.dirty().size();
  const CommStats stats0 = comm.stats();
  const std::string phase0 = comm.phase();

  obs::Metrics& met = comm.metrics();
  obs::Counter& c_dirty = met.counter("churn/dirty_octants");
  obs::Counter& c_region = met.counter("churn/dirty_region");
  obs::Counter& c_sent = met.counter("churn/constraints_sent");
  obs::Counter& c_created = met.counter("churn/octants_created");
  obs::Counter& c_rounds = met.counter("churn/delta_rounds");

  // Validate the dirty log into the first frontier.  The frontier outlives
  // this block; everything else in it is scratch.
  std::vector<std::vector<TreeOct<D>>> frontier(P);
  // The validation buckets are delta scratch: charge them to the pass's
  // first phase, not to whatever phase the caller left open.
  obs::mem_set_phase("churn/local");
  {
    OBS_SPAN("delta_validate");
    // Validate the dirty log against the current leaves, per rank: bucket
    // the entries by the rank whose marker range holds their first position
    // (a current leaf lies in its owner's range), then every rank sorts its
    // bucket and intersects it with its leaves.  Entries split or collapsed
    // away by a later batch drop out; the survivors are the first frontier.
    // (The log is global, so a repartition between the churn batch and this
    // call just moves an entry to its new owner's bucket.)
    const auto& log = f.dirty();
    const auto& marks = f.markers();
    const auto owner = [&](const TreeOct<D>& to) {
      const auto it =
          std::upper_bound(marks.begin(), marks.end(), position_of(to));
      return std::clamp(static_cast<int>(it - marks.begin()) - 1, 0, P - 1);
    };
    std::vector<std::size_t> bucket_at(P + 1, 0);
    for (const auto& to : log) ++bucket_at[owner(to) + 1];
    for (int r = 0; r < P; ++r) bucket_at[r + 1] += bucket_at[r];
    std::vector<TreeOct<D>> buckets(log.size());
    {
      std::vector<std::size_t> fill(bucket_at.begin(), bucket_at.end() - 1);
      for (const auto& to : log) buckets[fill[owner(to)]++] = to;
    }
    // The pass consumes the log up front.  The buckets are the log in owner
    // order, so they take over its charge, byte for byte.
    f.clear_dirty();
    const obs::MemScope bucket_mem(obs::MemTag::kDirtyLog,
                                   buckets.size() * sizeof(TreeOct<D>));
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("delta_validate", r);
      const auto b0 =
          buckets.begin() + static_cast<std::ptrdiff_t>(bucket_at[r]);
      const auto b1 =
          buckets.begin() + static_cast<std::ptrdiff_t>(bucket_at[r + 1]);
      std::sort(b0, b1);
      const auto& mine = f.local(r);
      std::set_intersection(b0, b1, mine.begin(), mine.end(),
                            std::back_inserter(frontier[r]));
    });
    for (int r = 0; r < P; ++r) {
      rep.dirty_validated += frontier[r].size();
      c_dirty.add(r, frontier[r].size());
    }
  }

  // Local pre-pass: re-balance every run containing a frontier octant
  // (whole-run, no constraints yet) — the phase-1 restriction to dirty
  // runs.  Runs without a frontier octant are fixed points of local
  // balance and are skipped.  Created leaves join the frontier.  The
  // leaves of the re-balanced runs are the region_octants counter.
  {
    OBS_SPAN("delta_local");
    std::vector<std::uint64_t> region(P, 0);
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("delta_local", r);
      const obs::MemRank mem_rank(r);
      if (frontier[r].empty()) return;
      TreeConstraints<D> touch;
      for (const auto& to : frontier[r]) touch[to.tree];  // run-only
      auto& mine = f.local(r);
      for (const auto& [i, j] : tree_runs(mine)) {
        if (touch.contains(mine[i].tree)) region[r] += j - i;
      }
      std::vector<TreeOct<D>> created;
      rebalance_runs(mine, touch, opt.subtree, k, nullptr, &created);
      frontier[r].insert(frontier[r].end(), created.begin(), created.end());
      std::sort(frontier[r].begin(), frontier[r].end());
    });
    for (int r = 0; r < P; ++r) {
      rep.region_octants += region[r];
      c_region.add(r, region[r]);
    }
  }

  // Push rounds: every frontier octant announces itself to the owners of
  // its insulation-layer pieces (mapped into the receiver's tree frame);
  // receivers group the announcements, as exterior constraints, by the
  // leaves they violate and rebuild those leaves from seeds; the leaves
  // that creates become the next frontier.  A charged allreduce of the
  // per-rank work counts detects the global fixed point.
  std::vector<std::vector<std::vector<WireOct<D>>>> qsend(P);
  std::vector<TreeConstraints<D>> aux(P);
  std::vector<std::uint64_t> rank_created(P, 0);
  // Per-rank staging high water across rounds: frontier + pushes + aux.
  std::vector<obs::MemScope> stage_mem(P);
  const auto& offs = full_offsets<D>();
  for (int round = 0;; ++round) {
    detail::check_delta_round<D>(round);
    {
      OBS_SPAN("delta_push");
      // Build the pushes.  Self-directed constraints (same rank but another
      // tree or a wrapped frame) bypass the network straight into aux.
      par::parallel_for_ranks(P, [&](int r) {
        OBS_SPAN_RANK("delta_push", r);
        qsend[r].assign(P, {});
        aux[r].clear();
        HaloOwnerWalk<D> walk(f, r);
        for (const auto& to : frontier[r]) {
          // Round 0's frontier was re-balanced whole-run by the pre-pass.
          // Later frontiers come from grouped applies and can ripple inside
          // their own run, so they also constrain it as self-directed aux.
          if (round > 0) aux[r][to.tree].push_back(to.oct);
          // Pieces inside the own span are the pre-pass's or the self
          // constraint's business; the walk visits only the others.
          walk.visit(to, offs, [&](const TreeNeighbor<D>& nb, bool same_frame,
                                   int r0, int r1) {
            // The receiver holds its leaves in the neighbor tree's frame, so
            // the announcement ships the frontier octant mapped *into* that
            // frame (nb.xform maps neighbor -> source; its inverse maps the
            // source octant to its — possibly exterior — image there).
            const Octant<D> img =
                same_frame ? to.oct : nb.xform.inverse().apply(to.oct);
            for (int dest = r0; dest <= r1; ++dest) {
              if (f.marker(dest) == f.marker(dest + 1)) continue;  // empty
              if (dest == r && same_frame) continue;
              if (dest == r) {
                aux[r][nb.tree].push_back(img);
              } else {
                qsend[r][dest].push_back(WireOct<D>{nb.tree, img.level, img.x});
              }
            }
          });
        }
        for (int dest = 0; dest < P; ++dest) {
          auto& q = qsend[r][dest];
          std::sort(q.begin(), q.end());
          q.erase(std::unique(q.begin(), q.end()), q.end());
        }
        // The frontier's last reader is the push walk above: free it here so
        // its bytes never overlap the exchange or the apply (it comes back
        // as the apply's created leaves).
        frontier[r].clear();
        frontier[r].shrink_to_fit();
        std::size_t staged = 0;
        for (const auto& q : qsend[r]) staged += q.size() * sizeof(WireOct<D>);
        for (const auto& [tree, octs] : aux[r]) {
          staged += octs.size() * sizeof(Octant<D>);
        }
        stage_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
      });

      // Charged termination consensus: one scalar allreduce of the round's
      // push work (network announcements plus self-directed constraints).
      // This is the NBX-style agreement that also closes the exchange below:
      // senders know their destinations from the owner search, so direct
      // point-to-point sends plus this consensus are a complete dynamic
      // sparse data exchange — no notify algorithm needed, unlike the full
      // pipeline's query phase where receivers are unknown to themselves.
      std::uint64_t net_total = 0, work_total = 0;
      {
        comm.set_phase("churn/reduce");
        std::vector<std::uint64_t> per(P, 0);
        for (int r = 0; r < P; ++r) {
          for (int dest = 0; dest < P; ++dest) per[r] += qsend[r][dest].size();
          net_total += per[r];
          std::uint64_t self = 0;
          for (const auto& [tree, octs] : aux[r]) self += octs.size();
          per[r] += self;
        }
        work_total = comm.allreduce_sum(per);
      }
      if (work_total == 0) break;
      ++rep.rounds;
      rep.constraints_sent += net_total;
      for (int r = 0; r < P; ++r) {
        std::uint64_t sent = 0;
        for (int dest = 0; dest < P; ++dest) sent += qsend[r][dest].size();
        c_sent.add(r, sent);
      }

      // Exchange the announcements with direct point-to-point sends (the
      // consensus above already told every rank the round is live; skipped
      // when every constraint this round was self-directed).
      if (net_total > 0) {
        comm.set_phase("churn/exchange");
        par::parallel_for_ranks(P, [&](int r) {
          for (int dest = 0; dest < P; ++dest) {
            if (qsend[r][dest].empty() || dest == r) continue;
            comm.send_items<WireOct<D>>(r, dest, qsend[r][dest]);
          }
        });
        comm.deliver();
        par::parallel_for_ranks(P, [&](int r) {
          for (const auto& m : comm.recv_all(r)) {
            for (const auto& w : SimComm::decode_items<WireOct<D>>(m)) {
              const TreeOct<D> c = from_wire(w);
              aux[r][c.tree].push_back(c.oct);
            }
          }
        });
      }

      // The announcements are delivered: drop them — buffers and staging
      // charge both — before the apply phase stacks its balance scratch on
      // top of the same rank slots.  Only the constraints stay staged.
      par::parallel_for_ranks(P, [&](int r) {
        qsend[r].assign(P, {});
        std::size_t staged = 0;
        for (const auto& [tree, octs] : aux[r]) {
          staged += octs.size() * sizeof(Octant<D>);
        }
        stage_mem[r].set_slot(r, obs::MemTag::kBalanceStaging, staged);
      });
    }

    // Apply the constraints with the grouped seed mechanism of the full
    // pipeline's phase 4; the created leaves are the next frontier.
    OBS_SPAN("delta_apply");
    par::parallel_for_ranks(P, [&](int r) {
      OBS_SPAN_RANK("delta_apply", r);
      const obs::MemRank mem_rank(r);
      std::vector<TreeOct<D>> created;
      auto groups = constraint_groups(f.local(r), aux[r], k);
      apply_groups(f.local(r), groups, opt.subtree, k, nullptr, &created);
      rank_created[r] += created.size();
      frontier[r].swap(created);
    });
  }

  for (int r = 0; r < P; ++r) {
    rep.octants_created += rank_created[r];
    c_created.add(r, rank_created[r]);
  }
  c_rounds.add(0, static_cast<std::uint64_t>(rep.rounds));
  f.refresh_markers();
  comm.set_phase(phase0);
  rep.comm.messages = comm.stats().messages - stats0.messages;
  rep.comm.bytes = comm.stats().bytes - stats0.bytes;
  rep.octants_after = f.global_num_octants();
  return rep;
}

#define OCTBAL_INSTANTIATE(D)                                              \
  template DeltaBalanceReport delta_balance<D>(Forest<D>&,                 \
                                               const BalanceOptions&,      \
                                               SimComm&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
