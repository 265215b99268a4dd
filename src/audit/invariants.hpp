#pragma once
/// \file invariants.hpp
/// \brief The property checks the fuzzer runs after every randomized
/// pipeline execution.  Each invariant has a stable string id, so the
/// shrinker can require that a simplification still fails the *same* way.
///
/// Invariants, in check order:
///   "structure"             — Forest::is_valid after balance (per-rank
///                             sortedness/linearity, markers, per-tree
///                             completeness).
///   "balance"               — forest_find_violation: no 2:1 violation
///                             across any codim <= k boundary, tree
///                             boundaries included.
///   "repartition/preserves_content"
///                           — when the case draws a repartition mode:
///                             after the balance→repartition rounds the
///                             partition-independent checksum, leaf set
///                             and 2:1 verdict are unchanged and the
///                             markers stay sorted/consistent.  The only
///                             block that runs the kStaleMarkers
///                             fault channel.
///   "scramble_invariance"   — rerunning with the SimComm delivery order
///                             toggled (canonical vs pseudo-randomly
///                             scrambled) produces the identical forest;
///                             one of the two runs is always canonical.
///   "serial_diff"           — octant-for-octant equality with the serial
///                             fixed-point oracle forest_balance_serial.
///   "old_new_diff"          — the pre-paper configuration (old subtree
///                             algorithm, raw-octant responses, whole-
///                             partition rebalance) produces the identical
///                             forest.
///   "partition_invariance"  — a 1-rank run produces the identical forest.
///   "seed_oracle"           — on sampled disjoint leaf pairs (o, r):
///                             balance_subtree_new(balance_seeds(o,r,k))
///                             equals the clipped overlap of ripple's
///                             Tk(o) with r (the Section IV contract).
///   "thread_determinism"    — gathered forest and serialized obs metrics
///                             are byte-identical at 1 and cfg.threads
///                             pool threads.
///   "memory/thread_invariance"
///                           — the accounted memory section (per-tag,
///                             per-rank, per-phase peaks) of the same two
///                             runs is byte-identical: the accountant
///                             tracks logical capacity transitions, so a
///                             diff means a kernel sized a buffer from
///                             thread-dependent state.
///
/// Tier::kLarge skips the oracle re-runs (serial_diff, old_new_diff,
/// seed_oracle) and keeps everything else, which is what lets the fuzzer
/// afford ~10^5-octant cases and P >= 64 (see case.hpp).

#include <cstdint>
#include <string>

#include "audit/case.hpp"

namespace octbal::audit {

struct InvariantReport {
  bool ok = true;
  std::string invariant;  ///< failing invariant id ("" when ok)
  std::string detail;     ///< human-readable specifics
  std::uint64_t octants_after = 0;  ///< balanced-forest size of the main run
  /// Chained forest_checksum of the churned forest after each churn step's
  /// refine (0 when the case has no churn block): pins the churn draws.
  std::uint64_t churn_checksum = 0;

  /// Comm-divergence attribution, filled on failure when
  /// cfg.attribute_divergence and the invariant has a natural A/B pair
  /// (clean vs injected, canonical vs scrambled, 1 vs N threads): the
  /// earliest flight round where the paired runs differ, its phase, one
  /// offending edge ("3->5"), and the full two-run octbal-flight-v1
  /// document for offline bisection (octbal_inspect bisect).  round == -1
  /// when no attribution ran or the flights were identical (the defect
  /// manifests after the last recorded comm round).
  std::int64_t divergent_round = -1;
  std::string divergent_phase;
  std::string divergent_edge;
  std::string flight_doc;

  static InvariantReport pass() { return {}; }
  static InvariantReport fail(std::string inv, std::string det) {
    InvariantReport r;
    r.ok = false;
    r.invariant = std::move(inv);
    r.detail = std::move(det);
    return r;
  }
};

struct Invariants {
  /// Run the full pipeline for \p cfg over \p data and check every
  /// invariant, stopping at the first failure.  Requires cfg.dim == D.
  template <int D>
  static InvariantReport check(const CaseConfig& cfg, const CaseData<D>& data);
};

/// One-line accounted re-run of a case's pipeline ("peak_bytes=N tag=N
/// ..."), for fuzz failure reports.  Installs the process-global memory
/// session (mutex-serialized against other summaries); call from
/// single-job contexts only, or concurrently running pipelines charge
/// their bytes into this case's figures.
template <int D>
std::string case_mem_summary(const CaseConfig& cfg, const CaseData<D>& data);

}  // namespace octbal::audit
