/// \file bench_churn.cpp
/// \brief Sustained-AMR churn lifecycle: an advected ice-sheet grounding
/// line is driven across the mesh for N steps, each step running the full
/// lifecycle refine → balance → repartition → coarsen.  Per step the
/// balance is executed twice on identical inputs:
///
///   full  — the one-pass pipeline of balance.cpp on a copy of the forest
///   delta — forest/delta_balance.cpp, re-balancing only the tree runs
///           that hold an octant the refine/coarsen batch created, and
///           the leaves those octants' pushes violate
///
/// and the two results are compared byte-for-byte (per-rank leaf arrays
/// and partition markers).  A mismatch marks the run FAILED — the delta
/// pass is only worth benchmarking while it is exact.  The per-step
/// modeled α–β times quantify what incrementality buys: on steady-state
/// steps (step >= 2, once the initial front has been absorbed) the delta
/// pass must model at least 25% cheaper than the full pipeline — pinned
/// by the CI smoke and the "churn" section of the BENCH baseline.
///
///   ./bench_churn [--steps 8] [--lmax 6] [--threads N] [--json out.json]
///                 [--trace trace.json]

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "forest/delta_balance.hpp"
#include "forest/repartition.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace octbal;

namespace {

/// Byte-identity of two distributed forests: same per-rank leaf arrays,
/// same partition markers.
template <int D>
bool forests_identical(const Forest<D>& a, const Forest<D>& b) {
  if (a.num_ranks() != b.num_ranks()) return false;
  for (int r = 0; r < a.num_ranks(); ++r) {
    if (!(a.local(r) == b.local(r))) return false;
  }
  return a.markers() == b.markers();
}

struct StepRecord {
  int step = 0;
  std::uint64_t octants = 0;        ///< leaves after the balanced step
  std::uint64_t refined = 0;        ///< leaves added by front_refine
  std::uint64_t coarsened = 0;      ///< leaves removed by front_coarsen
  DeltaBalanceReport delta;
  double modeled_full = 0;
  double modeled_delta = 0;
  /// Accounted peak bytes of the two passes over the identical churned
  /// forest (each session starts with the mesh bytes on its ledger, so
  /// the peaks compare like for like).  Incrementality must also win on
  /// memory: delta <= full, asserted by the CI smoke.
  std::uint64_t full_peak_bytes = 0;
  std::uint64_t delta_peak_bytes = 0;
  bool identical = false;
};

std::string churn_json(const std::vector<StepRecord>& steps, bool identical,
                       double steady_min, double steady_mean) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("identical_all", identical);
  w.kv("steady_min_reduction", steady_min);
  w.kv("steady_mean_reduction", steady_mean);
  w.key("steps").begin_array();
  for (const StepRecord& s : steps) {
    w.begin_object();
    w.kv("step", s.step);
    w.kv("octants", s.octants);
    w.kv("refined", s.refined);
    w.kv("coarsened", s.coarsened);
    w.kv("dirty", s.delta.dirty_validated);
    w.kv("region", s.delta.region_octants);
    w.kv("constraints", s.delta.constraints_sent);
    w.kv("created", s.delta.octants_created);
    w.kv("rounds", s.delta.rounds);
    w.kv("modeled_full", s.modeled_full);
    w.kv("modeled_delta", s.modeled_delta);
    w.kv("full_peak_bytes", s.full_peak_bytes);
    w.kv("delta_peak_bytes", s.delta_peak_bytes);
    const double red =
        s.modeled_full > 0 ? 1.0 - s.modeled_delta / s.modeled_full : 0.0;
    w.kv("reduction", red);
    w.kv("identical", s.identical);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int steps = static_cast<int>(cli.get_int("steps", 8));
  const int lmax = static_cast<int>(cli.get_int("lmax", 6));
  BenchReport report("bench_churn", cli);

  std::printf("=== Sustained AMR churn: refine -> balance -> repartition -> "
              "coarsen ===\n");
  configure_threads(cli);
  std::printf("delta pass must stay byte-identical to the full pipeline; "
              "reduction is modeled time\n\n");

  const BalanceOptions opt = BalanceOptions::new_config();
  RepartitionOptions ropt;
  ropt.mode = RepartitionMode::kWeighted;
  ropt.weight = RepartitionWeight::kInsulation;

  ChurnFrontParams cp;
  cp.drift = 0.03;  // the front clears its own wake in two steps
  cp.wake = 0.06;

  bool all_identical = true;
  for (const int ranks : {16, 64}) {
    // Steady state: the front at step 0, balanced by the full pipeline.
    Forest<3> f(Connectivity<3>::brick({8, 8, 1}), ranks, 1);
    front_refine(f, lmax, cp, 0);
    f.partition_uniform();
    {
      SimComm warm(ranks);
      warm.set_record_rounds(false);
      balance(f, opt, warm);
    }
    f.clear_dirty();

    std::printf("P = %d\n", ranks);
    std::printf("%4s %9s %7s %7s | %7s %6s %6s | %11s %11s %6s | %9s %9s "
                "| %s\n",
                "step", "octants", "refine", "coarse", "dirty", "constr",
                "rounds", "full", "delta", "red%", "fullMemB", "deltMemB",
                "identical");

    std::vector<StepRecord> recs;
    RunResult last_full;
    for (int t = 1; t <= steps; ++t) {
      StepRecord rec;
      rec.step = t;
      const std::uint64_t before = f.global_num_octants();
      front_refine(f, lmax, cp, t);
      rec.refined = f.global_num_octants() - before;

      // Full reference on a copy of the identical churned forest.  The
      // memory session opens before the copy, so the copied mesh bytes
      // (re-charged by the Forest copy) are on its ledger from the start.
      std::optional<obs::MemSession> fullmem;
      fullmem.emplace(ranks);
      Forest<3> ref = f;
      ref.clear_dirty();
      SimComm fc(ranks);
      RunResult full;
      full.ranks = ranks;
      full.octants = ref.global_num_octants();
      full.rep = balance(ref, opt, fc);
      full.modeled_time = fc.modeled_time();
      full.metrics = fc.metrics().snapshot();
      full.rounds = fc.rounds();
      full.rounds_truncated = fc.rounds_truncated();
      full.critical_path = fc.critical_path();
      full.memory = fullmem->snapshot();
      full.max_rss_kb = current_max_rss_kb();
      fullmem.reset();
      rec.modeled_full = full.modeled_time;
      rec.full_peak_bytes = full.memory.peak_bytes;

      // Delta pass on the live forest; account_memory() charges the live
      // mesh into the fresh session so both passes start from the same
      // floor and the peaks are comparable.
      SimComm dc(ranks);
      {
        obs::MemSession deltamem(ranks);
        f.account_memory();
        rec.delta = delta_balance(f, opt, dc);
        rec.delta_peak_bytes = deltamem.snapshot().peak_bytes;
      }
      rec.modeled_delta = dc.modeled_time();

#ifdef CHURN_PHASE_DUMP
      for (const auto& pc : dc.critical_path()) {
        std::printf("    [delta phase] %-18s rounds=%llu coll=%llu t=%.3g\n",
                    pc.name.c_str(),
                    static_cast<unsigned long long>(pc.rounds),
                    static_cast<unsigned long long>(pc.collectives), pc.time);
      }
#endif
      rec.identical = forests_identical(f, ref);
      all_identical = all_identical && rec.identical;
      full.ok = full.ok && rec.identical;
      if (!rec.identical) {
        full.error = "delta_balance diverged from full balance";
      }
      rec.octants = f.global_num_octants();

      // Close the lifecycle: rebalance load, then retire the wake.
      SimComm pc(ranks);
      repartition(f, ropt, &pc);
      const std::uint64_t pre_coarsen = f.global_num_octants();
      front_coarsen(f, cp, t, opt.k == 0 ? 3 : opt.k);
      rec.coarsened = pre_coarsen - f.global_num_octants();

      const double red = rec.modeled_full > 0
                             ? 1.0 - rec.modeled_delta / rec.modeled_full
                             : 0.0;
      std::printf("%4d %9llu %7llu %7llu | %7llu %6llu %6d | %11.4g %11.4g "
                  "%5.1f%% | %9llu %9llu | %s\n",
                  t, static_cast<unsigned long long>(rec.octants),
                  static_cast<unsigned long long>(rec.refined),
                  static_cast<unsigned long long>(rec.coarsened),
                  static_cast<unsigned long long>(rec.delta.dirty_validated),
                  static_cast<unsigned long long>(rec.delta.constraints_sent),
                  rec.delta.rounds, rec.modeled_full, rec.modeled_delta,
                  100.0 * red,
                  static_cast<unsigned long long>(rec.full_peak_bytes),
                  static_cast<unsigned long long>(rec.delta_peak_bytes),
                  rec.identical ? "yes" : "** DIVERGED **");
      recs.push_back(rec);
      last_full = full;
    }

    double steady_min = 1.0, steady_sum = 0.0;
    int steady_n = 0;
    for (const StepRecord& s : recs) {
      if (s.step < 2 || s.modeled_full <= 0) continue;
      const double red = 1.0 - s.modeled_delta / s.modeled_full;
      steady_min = std::min(steady_min, red);
      steady_sum += red;
      ++steady_n;
    }
    const double steady_mean = steady_n > 0 ? steady_sum / steady_n : 0.0;
    bool mem_ok = true;
    for (const StepRecord& s : recs) {
      mem_ok = mem_ok && s.delta_peak_bytes <= s.full_peak_bytes;
    }
    std::printf("  steady-state reduction: min %.1f%%, mean %.1f%%; "
                "delta peak <= full peak every step: %s\n\n",
                100.0 * steady_min, 100.0 * steady_mean,
                mem_ok ? "yes" : "** NO **");

    const std::string algo = "churn/p" + std::to_string(ranks);
    report.add(algo.c_str(), last_full, 1.0, "churn",
               churn_json(recs, all_identical, steady_min, steady_mean));
  }

  std::printf("(delta must stay byte-identical every step with >= 25%% "
              "steady-state modeled-time reduction; pinned by the CI smoke "
              "and the BENCH baseline diff)\n");
  return report.all_ok() && all_identical ? 0 : 1;
}
