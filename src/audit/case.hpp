#pragma once
/// \file case.hpp
/// \brief Randomized pipeline configurations for the audit/fuzzing
/// subsystem: a seed deterministically expands into a connectivity shape,
/// a refinement workload, a rank/thread layout, a balance condition and a
/// full set of pipeline switches.  The same seed always reproduces the
/// same case, which is what makes every fuzz failure replayable.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "forest/balance.hpp"
#include "forest/forest.hpp"
#include "forest/repartition.hpp"

namespace octbal::audit {

enum class ConnKind : std::uint8_t {
  kBrick = 0,  ///< nx × ny (× nz) lattice, optionally periodic per axis
  kRing = 1,   ///< n trees glued in a cycle; orient 1 in 2D is a Möbius band
};

enum class WorkloadKind : std::uint8_t {
  kRandom = 0,   ///< random_refine with per-case density
  kFractal = 1,  ///< the Figure 15 fractal rule
  kIceSheet = 2, ///< synthetic grounding-line mesh (lattice-only)
};

enum class PartitionKind : std::uint8_t {
  kEven = 0,      ///< leave the construction-time even split in place
  kUniform = 1,   ///< partition_uniform after refinement
  kWeighted = 2,  ///< partition_weighted by (1 + level)
};

/// Post-balance dynamic repartitioning exercised by the case (the
/// forest/repartition.hpp pass), or kNone to leave the partition alone.
enum class RepartitionKind : std::uint8_t {
  kNone = 0,
  kWeightedOctants = 1,     ///< one-shot re-split, unit weights
  kWeightedInsulation = 2,  ///< one-shot re-split, envelope-size weights
};

/// How much of the invariant battery a case affords.  The full tier runs
/// every check including the serial fixed-point oracle and the old-vs-new
/// differential, both of which are O(case size) *re-executions* of the
/// whole balance — affordable at fuzz scale (a few thousand leaves, P <= 8)
/// but not beyond.  The large tier drops exactly those oracle re-runs
/// (serial_diff, old_new_diff, seed_oracle) and keeps the oracle-free
/// checks — structure, balance, scramble/partition/thread invariance — so
/// randomized cases can grow to ~10^5 octants and P >= 64.
enum class Tier : std::uint8_t {
  kFull = 0,
  kLarge = 1,
};

/// Everything that defines one fuzz case.  Filled by random_case_config();
/// a shrunk repro may carry a hand-simplified copy.
struct CaseConfig {
  std::uint64_t seed = 0;
  Tier tier = Tier::kFull;  ///< which invariant battery the case affords
  int dim = 2;  ///< 2 or 3

  ConnKind conn = ConnKind::kBrick;
  std::array<int, 3> dims{1, 1, 1};         ///< brick only
  std::array<bool, 3> periodic{};           ///< brick only
  int ring_trees = 2;                       ///< ring only
  std::uint8_t ring_orient = 0;             ///< ring only

  int ranks = 1;
  int threads = 1;  ///< upper point of the thread-determinism sweep
  int k = 1;        ///< balance condition, 1..dim
  int lmax = 4;
  double density = 0.3;  ///< random workload split probability
  WorkloadKind workload = WorkloadKind::kRandom;
  PartitionKind partition = PartitionKind::kEven;
  bool scramble = false;  ///< pseudo-random SimComm delivery order

  /// Dynamic repartitioning after balance: weight kind and
  /// balance→repartition round count.
  RepartitionKind repartition = RepartitionKind::kNone;
  int repartition_rounds = 1;

  /// Churn lifecycle dimension: run this many random refine(+coarsen)
  /// batches on the balanced forest, each followed by a delta_balance that
  /// must be byte-identical to a full balance() of the same churned forest
  /// (the "churn/delta_equiv" invariant).  0 disables the block.
  int churn_steps = 0;
  bool churn_coarsen = true;  ///< include a 2:1-veto'd coarsen per batch

  /// Pipeline switches for the main run (opt.k is kept equal to k above;
  /// opt.inject is the fault-injection channel for self-tests).
  BalanceOptions opt{};

  /// The thread-determinism invariant calls par::set_num_threads, which is
  /// illegal inside a parallel region — the fuzzer clears this flag when it
  /// fans cases out across jobs.
  bool check_threads = true;

  /// On failure, re-run the failing invariant's natural A/B pair (clean vs
  /// injected, canonical vs scrambled, 1 vs N threads) with the SimComm
  /// flight recorder on, bisect the two logs, and attach the first
  /// divergent round/edge to the report.  The shrinker turns this off
  /// inside its eval loop — attribution would triple the cost of every
  /// eval — and re-attributes the final shrunk case.
  bool attribute_divergence = true;
};

/// Deterministically expand \p seed into a full case configuration.  The
/// large tier draws the same pipeline switches but scales the workload to
/// ~10^5 octants and 64-192 simulated ranks (affordable only because its
/// invariant battery is oracle-free).
CaseConfig random_case_config(std::uint64_t seed, Tier tier = Tier::kFull);

/// One-line human-readable description (for failure reports and logs).
std::string describe(const CaseConfig& cfg);

/// The RepartitionOptions a case's repartition dimensions translate to
/// (opt.inject is left at kNone: the invariant battery injects the fault
/// channel only where it is under test).
RepartitionOptions repartition_options(const CaseConfig& cfg);

/// The concrete input of a case: its connectivity and the pre-balance
/// leaves in global SFC order.  The shrinker mutates only the leaves.
template <int D>
struct CaseData {
  Connectivity<D> conn;
  std::vector<TreeOct<D>> leaves;
};

/// Build the connectivity and generate the workload for \p cfg.
/// Requires cfg.dim == D.
template <int D>
CaseData<D> make_case(const CaseConfig& cfg);

}  // namespace octbal::audit
