#include "audit/invariants.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/balance_subtree.hpp"
#include "core/linear.hpp"
#include "core/ripple.hpp"
#include "core/seeds.hpp"
#include "forest/delta_balance.hpp"
#include "obs/analysis.hpp"
#include "obs/mem.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace octbal::audit {
namespace {

template <int D>
struct PipelineRun {
  std::vector<TreeOct<D>> got;
  std::string metrics;
  std::string mem;  ///< serialized memory section (flags.account_mem only)
  bool valid = false;
  std::vector<SimComm::Round> rounds;  ///< empty unless flags.flight
  std::uint64_t rounds_truncated = 0;
};

/// Per-run switches for divergence attribution: record the flight log,
/// carry the case's fault channel into the repartition rounds (the way
/// the repartition/preserves_content block does), and/or wrap the run in
/// a memory-accounting session.
struct RunFlags {
  bool flight = false;
  bool inject_repartition = false;
  bool account_mem = false;
};

/// The case's forest over \p ranks, split by its partition strategy.
template <int D>
Forest<D> partitioned_forest(const CaseConfig& cfg, const CaseData<D>& data,
                             int ranks) {
  Forest<D> f(data.conn, ranks, data.leaves);
  switch (cfg.partition) {
    case PartitionKind::kEven:
      break;
    case PartitionKind::kUniform:
      f.partition_uniform();
      break;
    case PartitionKind::kWeighted:
      f.partition_weighted(
          [](const TreeOct<D>& to) { return 1 + to.oct.level; });
      break;
  }
  return f;
}

template <int D>
PipelineRun<D> run_pipeline(const CaseConfig& cfg, const CaseData<D>& data,
                            const BalanceOptions& opt, int ranks,
                            RunFlags flags = {}) {
  // The session (when requested) must be live before the forest exists so
  // construction-time charges land in it.
  std::optional<obs::MemSession> mem;
  if (flags.account_mem) mem.emplace(ranks);
  Forest<D> f = partitioned_forest(cfg, data, ranks);
  SimComm comm(ranks);
  comm.set_flight_recording(flags.flight);
  if (cfg.scramble) comm.set_scramble(cfg.seed);
  balance(f, opt, comm);
  // Repartition rounds run with the fault channel stripped, so every
  // content-equality invariant built on this pipeline (scramble, thread
  // and partition-count invariance, metrics determinism) covers the pass
  // without tripping on an injected defect; the fault channel itself is
  // exercised by the dedicated repartition/preserves_content block (and
  // by attribution re-runs, which set flags.inject_repartition to mirror
  // that block).
  if (cfg.repartition != RepartitionKind::kNone) {
    RepartitionOptions ropt = repartition_options(cfg);
    if (flags.inject_repartition) ropt.inject = opt.inject;
    for (int i = 0; i < cfg.repartition_rounds; ++i) {
      repartition(f, ropt, &comm);
    }
  }
  PipelineRun<D> run;
  run.valid = f.is_valid();
  run.got = f.gather();
  run.metrics = comm.metrics().snapshot().serialize();
  if (flags.flight) {
    run.rounds = comm.rounds();
    run.rounds_truncated = comm.rounds_truncated();
  }
  if (mem) run.mem = mem->snapshot().serialize();
  return run;
}

/// Which A/B pair explains a failure: clean vs injected pipeline, the two
/// delivery orders, or the two thread counts.
enum class DivergencePair { kInject, kScramble, kThreads };

template <int D>
obs::FlightLog flight_of(std::string label, int ranks, PipelineRun<D>&& run) {
  return obs::FlightLog{std::move(label), ranks, run.rounds_truncated,
                        std::move(run.rounds)};
}

/// Re-run the failing invariant's natural A/B pair with flight recording,
/// bisect the two logs, and attach the earliest divergent round/edge (and
/// the full two-run flight document) to \p rep.  Deterministic: the
/// re-runs replay the exact configurations the invariant compared.
template <int D>
InvariantReport with_divergence(InvariantReport rep, const CaseConfig& cfg,
                                const CaseData<D>& data,
                                DivergencePair kind) {
  if (!cfg.attribute_divergence) return rep;
  obs::FlightLog a, b;
  switch (kind) {
    case DivergencePair::kInject: {
      BalanceOptions clean = cfg.opt;
      clean.inject = FaultInjection::kNone;
      a = flight_of<D>("clean", cfg.ranks,
                       run_pipeline(cfg, data, clean, cfg.ranks, {true, false}));
      b = flight_of<D>("injected", cfg.ranks,
                       run_pipeline(cfg, data, cfg.opt, cfg.ranks,
                                    {true, true}));
      break;
    }
    case DivergencePair::kScramble: {
      CaseConfig ca = cfg;
      ca.scramble = false;
      CaseConfig cb = cfg;
      cb.scramble = true;
      a = flight_of<D>("canonical", cfg.ranks,
                       run_pipeline(ca, data, cfg.opt, cfg.ranks, {true, false}));
      b = flight_of<D>("scrambled", cfg.ranks,
                       run_pipeline(cb, data, cfg.opt, cfg.ranks, {true, false}));
      break;
    }
    case DivergencePair::kThreads: {
      const int saved = par::num_threads();
      par::set_num_threads(1);
      a = flight_of<D>("threads=1", cfg.ranks,
                       run_pipeline(cfg, data, cfg.opt, cfg.ranks, {true, false}));
      par::set_num_threads(cfg.threads);
      b = flight_of<D>("threads=" + std::to_string(cfg.threads), cfg.ranks,
                       run_pipeline(cfg, data, cfg.opt, cfg.ranks, {true, false}));
      par::set_num_threads(saved);
      break;
    }
  }
  const obs::FlightDivergence div = obs::flight_bisect(a, b);
  rep.flight_doc = obs::flight_doc_json(
      {a, b},
      "audit seed " + std::to_string(cfg.seed) + ": " + rep.invariant);
  if (div.diverged && div.round >= 0) {
    rep.divergent_round = div.round;
    rep.divergent_phase = div.phase_a == div.phase_b
                              ? div.phase_a
                              : div.phase_a + "|" + div.phase_b;
    if (!div.edges.empty()) {
      rep.divergent_edge = std::to_string(div.edges[0].from) + "->" +
                           std::to_string(div.edges[0].to);
    }
    rep.detail += "; comm divergence (" + a.label + " vs " + b.label +
                  "): first at round " + std::to_string(div.round) +
                  ", phase " + rep.divergent_phase +
                  (rep.divergent_edge.empty() ? std::string()
                                              : ", edge " + rep.divergent_edge);
  } else {
    rep.detail += "; flight logs identical (" + a.label + " vs " + b.label +
                  ": divergence is after the last comm round)";
  }
  return rep;
}

template <int D>
std::string first_diff(const std::vector<TreeOct<D>>& got,
                       const std::vector<TreeOct<D>>& want) {
  std::ostringstream os;
  os << "got " << got.size() << " leaves, want " << want.size();
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) {
      os << "; first diff at index " << i << ": got tree " << got[i].tree
         << " " << to_string(got[i].oct) << ", want tree " << want[i].tree
         << " " << to_string(want[i].oct);
      return os.str();
    }
  }
  if (got.size() != want.size()) {
    os << "; common prefix of " << n << " leaves matches";
  }
  return os.str();
}

/// The Section IV contract on a sampled pair of leaves (o, r) in the same
/// tree frame: rebuilding from seeds must reproduce the clipped overlap of
/// the ripple oracle's Tk(o) with r.
template <int D>
bool seed_pair_ok(const Octant<D>& o, const Octant<D>& r, int k,
                  std::string* why) {
  const auto root = root_octant<D>();
  const auto t = tk_of(o, k, root);
  std::vector<Octant<D>> want;
  const auto [lo, hi] = overlapping_range(t, r);
  for (std::size_t i = lo; i < hi; ++i) {
    want.push_back(contains(t[i], r) ? r : t[i]);  // coarse leaves clip to r
  }
  const auto seeds = balance_seeds(o, r, k);
  if (seeds.empty()) {
    for (const auto& leaf : want) {
      if (size_exp(leaf) < size_exp(r)) {
        *why = "no seeds, but Tk(o) splits r: o=" + to_string(o) +
               " r=" + to_string(r) + " k=" + std::to_string(k);
        return false;
      }
    }
    return true;
  }
  const auto rebuilt = balance_subtree_new(seeds, k, r);
  if (rebuilt != want) {
    *why = "seed rebuild mismatch: o=" + to_string(o) + " r=" + to_string(r) +
           " k=" + std::to_string(k) + " seeds=" + std::to_string(seeds.size()) +
           " rebuilt=" + std::to_string(rebuilt.size()) +
           " oracle=" + std::to_string(want.size());
    return false;
  }
  return true;
}

/// The churn block's refine decisions: one draw per leaf below \p lmax, in
/// rank-major SFC order, for the leaves that split.  A split leaf's
/// children below \p lmax draw too, unused, so that every case keeps the
/// draw stream its seed-pinned tests were recorded with.  Sorted, as
/// rank-major order is global SFC order.
template <int D>
std::vector<TreeOct<D>> churn_refine_draws(const Forest<D>& f, Rng& rng,
                                           int lmax) {
  const int below = std::min(lmax, max_level<D>);
  std::vector<TreeOct<D>> splits;
  for (int r = 0; r < f.num_ranks(); ++r) {
    for (const auto& to : f.local(r)) {
      if (to.oct.level >= below || !rng.chance(0.15)) continue;
      splits.push_back(to);
      if (to.oct.level + 1 < below) {
        for (int c = 0; c < num_children<D>; ++c) (void)rng.chance(0.15);
      }
    }
  }
  return splits;
}

/// The churn block's coarsen decisions: the first members of the families
/// whose members all draw true, drawn in the family scan's order — rank by
/// rank, member by member, stopping at the first false or non-member (the
/// 2:1 veto comes after the draws and changes none of them).  Sorted.
template <int D>
std::vector<TreeOct<D>> churn_coarsen_draws(const Forest<D>& f, Rng& rng) {
  constexpr int nc = num_children<D>;
  std::vector<TreeOct<D>> families;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const auto& mine = f.local(r);
    for (std::size_t i = 0; i < mine.size();) {
      bool all = mine[i].oct.level > 0 && child_id(mine[i].oct) == 0 &&
                 i + nc <= mine.size();
      for (int c = 0; all && c < nc; ++c) {
        all = mine[i + c].tree == mine[i].tree &&
              mine[i + c].oct == sibling(mine[i].oct, c) && rng.chance(0.35);
      }
      if (all) families.push_back(mine[i]);
      i += all ? nc : 1;
    }
  }
  return families;
}

}  // namespace

template <int D>
InvariantReport Invariants::check(const CaseConfig& cfg,
                                  const CaseData<D>& data) {
  // A failure of a content invariant under fault injection has a natural
  // clean-vs-injected flight pair; attach the first-divergent comm round
  // to the report (no-op for genuinely clean configurations).
  const auto attributed = [&](InvariantReport r) {
    if (cfg.opt.inject != FaultInjection::kNone) {
      return with_divergence<D>(std::move(r), cfg, data,
                                DivergencePair::kInject);
    }
    return r;
  };

  // Main run: the fuzzed configuration exactly as drawn.
  const PipelineRun<D> main = run_pipeline(cfg, data, cfg.opt, cfg.ranks);
  if (!main.valid) {
    return attributed(InvariantReport::fail(
        "structure",
        "Forest::is_valid failed after balance "
        "(per-rank sortedness / markers / per-tree completeness)"));
  }

  BalanceViolation<D> v;
  if (!forest_find_violation(main.got, data.conn, cfg.k, &v)) {
    std::ostringstream os;
    os << "2:1 violation at codim " << v.codim << ": coarse tree " << v.coarse.tree
       << " " << to_string(v.coarse.oct) << " vs fine tree " << v.fine.tree
       << " " << to_string(v.fine.oct) << " (mapped " << to_string(v.mapped)
       << ")";
    return attributed(InvariantReport::fail("balance", os.str()));
  }

  // Repartitioning must move ownership only: the partition-independent
  // checksum, the gathered leaf set and the 2:1 verdict are unchanged, and
  // the marker array stays sorted and consistent with the local arrays.
  // This is the one block that runs the pass *with* the fault channel
  // (kStaleMarkers) installed — run_pipeline strips it above.
  if (cfg.repartition != RepartitionKind::kNone) {
    Forest<D> f = partitioned_forest(cfg, data, cfg.ranks);
    SimComm comm(cfg.ranks);
    if (cfg.scramble) comm.set_scramble(cfg.seed);
    balance(f, cfg.opt, comm);
    const std::uint64_t sum_before = forest_checksum(f);
    const std::vector<TreeOct<D>> before = f.gather();
    const bool balanced_before = forest_is_balanced(before, data.conn, cfg.k);
    RepartitionOptions ropt = repartition_options(cfg);
    ropt.inject = cfg.opt.inject;
    for (int i = 0; i < cfg.repartition_rounds; ++i) {
      repartition(f, ropt, &comm);
    }
    const auto& marks = f.markers();
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      if (marks[i + 1] < marks[i]) {
        return attributed(InvariantReport::fail(
            "repartition/preserves_content",
            "partition markers not sorted after repartition (marker " +
                std::to_string(i + 1) + " precedes marker " +
                std::to_string(i) + ")"));
      }
    }
    if (!f.is_valid()) {
      return attributed(InvariantReport::fail(
          "repartition/preserves_content",
          "Forest::is_valid failed after repartition (stale or wrong "
          "markers, or ranks outside their marker ranges)"));
    }
    if (forest_checksum(f) != sum_before) {
      return attributed(InvariantReport::fail(
          "repartition/preserves_content",
          "partition-independent checksum changed across repartition"));
    }
    if (f.gather() != before) {
      return attributed(InvariantReport::fail(
          "repartition/preserves_content",
          "leaf set changed across repartition: " +
              first_diff<D>(f.gather(), before)));
    }
    if (forest_is_balanced(f.gather(), data.conn, cfg.k) != balanced_before) {
      return attributed(InvariantReport::fail(
          "repartition/preserves_content",
          "2:1 balance verdict changed across repartition"));
    }
  }

  // Incremental equivalence: churn_steps random refine(+veto'd coarsen)
  // batches on a balanced forest, each followed by a delta_balance of the
  // live forest that must be byte-identical — per-rank arrays and markers
  // — to a full balance() of a copy of the same churned forest.  Runs with
  // the fault channel stripped (like run_pipeline): the block certifies
  // the delta scheme against the pipeline, not the injection machinery,
  // and an injected main balance could break delta_balance's balanced-
  // precondition.
  std::uint64_t churn_sum = 0;
  if (cfg.churn_steps > 0) {
    BalanceOptions copt = cfg.opt;
    copt.inject = FaultInjection::kNone;
    Forest<D> f = partitioned_forest(cfg, data, cfg.ranks);
    {
      SimComm comm(cfg.ranks);
      if (cfg.scramble) comm.set_scramble(cfg.seed);
      balance(f, copt, comm);
    }
    f.clear_dirty();
    Rng crng(cfg.seed ^ 0x5EED0FDE17AC4B05ull);
    for (int s = 0; s < cfg.churn_steps; ++s) {
      // The draws are made serially, in rank-major SFC order, and the
      // rank workers only look the decisions up (Forest::RefinePred).
      if (cfg.churn_coarsen) {
        const auto families = churn_coarsen_draws(f, crng);
        f.coarsen(
            [&](const TreeOct<D>& to) {
              return std::binary_search(
                  families.begin(), families.end(),
                  TreeOct<D>{to.tree, sibling(to.oct, 0)});
            },
            cfg.k);
      }
      const auto splits = churn_refine_draws(f, crng, cfg.lmax);
      f.refine(
          [&](const TreeOct<D>& to) {
            return std::binary_search(splits.begin(), splits.end(), to);
          },
          false);
      churn_sum = churn_sum * 0x100000001B3ull ^ forest_checksum(f);
      Forest<D> ref = f;
      ref.clear_dirty();
      SimComm fc(cfg.ranks);
      if (cfg.scramble) fc.set_scramble(cfg.seed);
      balance(ref, copt, fc);
      SimComm dc(cfg.ranks);
      if (cfg.scramble) dc.set_scramble(cfg.seed + s + 1);
      delta_balance(f, copt, dc);
      for (int r = 0; r < cfg.ranks; ++r) {
        if (!(f.local(r) == ref.local(r))) {
          return InvariantReport::fail(
              "churn/delta_equiv",
              "delta_balance diverged from full balance at churn step " +
                  std::to_string(s) + ", rank " + std::to_string(r) + ": " +
                  first_diff<D>(f.local(r), ref.local(r)));
        }
      }
      if (f.markers() != ref.markers()) {
        return InvariantReport::fail(
            "churn/delta_equiv",
            "partition markers diverged from full balance at churn step " +
                std::to_string(s));
      }
    }
  }

  // Delivery-order invariance: rerun with the SimComm delivery order
  // toggled — whichever of the two runs is scrambled, the other is
  // canonical, so this always compares canonical against scrambled
  // delivery.  The forest may not depend on the order messages are
  // handed to a rank (the delivery-order analog of thread determinism).
  {
    CaseConfig alt_cfg = cfg;
    alt_cfg.scramble = !cfg.scramble;
    const PipelineRun<D> alt = run_pipeline(alt_cfg, data, cfg.opt, cfg.ranks);
    if (alt.got != main.got) {
      return with_divergence<D>(
          InvariantReport::fail(
              "scramble_invariance",
              std::string("forest differs between canonical and scrambled "
                          "delivery order: ") +
                  first_diff<D>(alt.got, main.got)),
          cfg, data, DivergencePair::kScramble);
    }
  }

  if (cfg.tier == Tier::kFull) {
    const auto want = forest_balance_serial(data.leaves, data.conn, cfg.k);
    if (main.got != want) {
      return attributed(
          InvariantReport::fail("serial_diff", first_diff<D>(main.got, want)));
    }

    // Old-vs-new equivalence: the pre-paper configuration must reach the
    // same unique coarsest balanced refinement.
    BalanceOptions old = BalanceOptions::old_config();
    old.k = cfg.opt.k;
    old.inject = cfg.opt.inject;
    const PipelineRun<D> alt = run_pipeline(cfg, data, old, cfg.ranks);
    if (alt.got != want) {
      return attributed(
          InvariantReport::fail("old_new_diff", first_diff<D>(alt.got, want)));
    }
  }

  // Partition-count invariance: the result may not depend on P.
  if (cfg.ranks > 1) {
    const PipelineRun<D> one = run_pipeline(cfg, data, cfg.opt, 1);
    if (one.got != main.got) {
      return InvariantReport::fail("partition_invariance",
                                   first_diff<D>(one.got, main.got));
    }
  }

  // λ/seed decisions vs the ripple oracle on sampled disjoint leaf pairs.
  if (cfg.tier == Tier::kFull) {
    Rng rng(cfg.seed ^ 0x9E3779B97F4A7C15ull);
    const auto& lv = data.leaves;
    std::string why;
    int sampled = 0;
    for (int attempt = 0; attempt < 200 && sampled < 24; ++attempt) {
      const auto& a = lv[rng.below(lv.size())];
      const auto& b = lv[rng.below(lv.size())];
      if (a.tree != b.tree) continue;
      const Octant<D>& o = a.oct.level >= b.oct.level ? a.oct : b.oct;
      const Octant<D>& r = a.oct.level >= b.oct.level ? b.oct : a.oct;
      if (overlaps(o, r)) continue;
      ++sampled;
      if (!seed_pair_ok<D>(o, r, cfg.k, &why)) {
        return InvariantReport::fail("seed_oracle", why);
      }
    }
  }

  // Thread-count determinism: gathered forest and serialized metrics must
  // be byte-identical across pool sizes.
  if (cfg.check_threads && cfg.threads > 1) {
    // check_threads implies a single-job fuzzer, so the process-global
    // memory session sees only this pipeline's charges and the accounted
    // sections can be compared byte for byte.
    RunFlags mf;
    mf.account_mem = true;
    const int saved = par::num_threads();
    par::set_num_threads(1);
    const PipelineRun<D> t1 = run_pipeline(cfg, data, cfg.opt, cfg.ranks, mf);
    par::set_num_threads(cfg.threads);
    const PipelineRun<D> tn = run_pipeline(cfg, data, cfg.opt, cfg.ranks, mf);
    par::set_num_threads(saved);
    if (t1.got != tn.got) {
      return with_divergence<D>(
          InvariantReport::fail(
              "thread_determinism",
              "forest differs between 1 and " + std::to_string(cfg.threads) +
                  " threads: " + first_diff<D>(tn.got, t1.got)),
          cfg, data, DivergencePair::kThreads);
    }
    if (t1.metrics != tn.metrics) {
      return with_divergence<D>(
          InvariantReport::fail(
              "thread_determinism",
              "obs metrics not byte-identical between 1 and " +
                  std::to_string(cfg.threads) + " threads"),
          cfg, data, DivergencePair::kThreads);
    }
    if (t1.mem != tn.mem) {
      return with_divergence<D>(
          InvariantReport::fail(
              "memory/thread_invariance",
              "memory accounting not byte-identical between 1 and " +
                  std::to_string(cfg.threads) +
                  " threads (a kernel sized a buffer from "
                  "thread-dependent state)"),
          cfg, data, DivergencePair::kThreads);
    }
  }

  InvariantReport rep = InvariantReport::pass();
  rep.octants_after = main.got.size();
  rep.churn_checksum = churn_sum;
  return rep;
}

template InvariantReport Invariants::check<2>(const CaseConfig&,
                                              const CaseData<2>&);
template InvariantReport Invariants::check<3>(const CaseConfig&,
                                              const CaseData<3>&);

template <int D>
std::string case_mem_summary(const CaseConfig& cfg, const CaseData<D>& data) {
  // One accounted re-run at a time: the accountant is process-global.
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  obs::MemSession mem(cfg.ranks);
  run_pipeline(cfg, data, cfg.opt, cfg.ranks);
  const obs::MemSnapshot m = mem.snapshot();
  if (m.empty()) return {};  // OCTBAL_OBS_DISABLE build
  std::string s = "peak_bytes=" + std::to_string(m.peak_bytes);
  for (const auto& t : m.tags) {
    s += ' ';
    s += obs::mem_tag_name(t.tag);
    s += '=' + std::to_string(t.total);
  }
  return s;
}

template std::string case_mem_summary<2>(const CaseConfig&,
                                         const CaseData<2>&);
template std::string case_mem_summary<3>(const CaseConfig&,
                                         const CaseData<3>&);

}  // namespace octbal::audit
