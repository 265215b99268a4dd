#pragma once
/// \file workloads.hpp
/// \brief The two mesh workloads of the paper's evaluation (Section VI):
/// the fractal refinement rule of the weak-scaling study (Figure 15) and a
/// synthetic stand-in for the Antarctica ice-sheet mesh of the strong-
/// scaling study (Figures 16/17) — see the substitution table in DESIGN.md.

#include <cstdint>
#include <map>

#include "forest/forest.hpp"

namespace octbal {

/// The Figure 15 rule: recursively split every octant whose child
/// identifier belongs to a fixed subset ({0,3,5,6} in 3D; the diagonal pair
/// {0,3} in 2D) until \p lmax, producing a fractal mesh whose level spread
/// equals lmax - (initial level).
template <int D>
void fractal_refine(Forest<D>& f, int lmax);

/// Parameters of the synthetic grounding line: a closed radial curve
/// r(θ) = R·(1 + amp·Σ cos(jθ+φj)) in the forest's x-y footprint.  Octants
/// crossing the curve (and, in 3D, lying near the base of the sheet,
/// z < zfrac) are refined to \p lmax — reproducing the highly graded,
/// codimension-one-concentrated refinement of the Antarctica mesh.
struct IceSheetParams {
  int modes = 7;          ///< number of Fourier modes in the coastline
  double amp = 0.35;      ///< total relative amplitude of the wiggles
  double radius = 0.31;   ///< base radius, relative to the footprint size
  double zfrac = 0.25;    ///< 3D only: grounded-ice band height fraction
  std::uint64_t seed = 2012;
};

template <int D>
void icesheet_refine(Forest<D>& f, int lmax, const IceSheetParams& p = {});

/// Parameters of the advected grounding line driving the sustained-AMR
/// churn benchmarks (bench/bench_churn): per time step the coastline's
/// base radius advances outward by \p drift (relative units), cells
/// straddling the *current* front refine to lmax, and cells whose whole
/// footprint sits further than \p wake from the front coarsen back one
/// level per step — the classic moving-feature AMR lifecycle.
struct ChurnFrontParams {
  IceSheetParams sheet{};
  double drift = 0.015;  ///< radial front advance per step
  double wake = 0.08;    ///< distance beyond which cells coarsen back
};

/// Refine every cell straddling the front at time \p step to \p lmax
/// (recursive; in 3D restricted to the grounded band z < zfrac).
template <int D>
void front_refine(Forest<D>& f, int lmax, const ChurnFrontParams& p,
                  int step);

/// Coarsen families whose members all lie further than p.wake from the
/// front at time \p step, one level per sweep.  \p balance_k > 0 applies
/// the 2:1-safe veto (Forest::coarsen), which keeps a balanced forest
/// balanced — the precondition of delta_balance().
template <int D>
void front_coarsen(Forest<D>& f, const ChurnFrontParams& p, int step,
                   int balance_k);

/// The pure predicates front_refine and front_coarsen pass to
/// Forest::refine and Forest::coarsen on a forest over \p conn.
template <int D>
typename Forest<D>::RefinePred front_refine_pred(const Connectivity<D>& conn,
                                                 int lmax,
                                                 const ChurnFrontParams& p,
                                                 int step);
template <int D>
typename Forest<D>::RefinePred front_coarsen_pred(const Connectivity<D>& conn,
                                                  const ChurnFrontParams& p,
                                                  int step);

class Rng;

/// Randomized recursive refinement used by the fuzzing/audit harness and
/// the configuration-space tests: every leaf splits with probability
/// \p density (children are re-tested) until \p lmax.  Deterministic for a
/// given (forest, seed) pair: the draws follow the SFC order, which only a
/// one-rank forest's refine keeps (Forest::RefinePred), so it throws
/// std::invalid_argument on a forest with more than one rank.
template <int D>
void random_refine(Forest<D>& f, Rng& rng, int lmax, double density);

/// The multi-rank form: random_refine of a \p level uniform forest on one
/// rank, with the leaves then split evenly over \p ranks
/// (Forest(conn, ranks, leaves)).  Rank-major order is SFC order, so the
/// draws, and the leaves, are those of random_refine's predicate run rank
/// by rank over a \p ranks-rank forest; only the partition is the even
/// split of the refined leaves.
template <int D>
Forest<D> random_forest(const Connectivity<D>& conn, int ranks, int level,
                        Rng& rng, int lmax, double density);

/// Octant count per level across the whole forest.
template <int D>
std::map<int, std::uint64_t> level_histogram(const Forest<D>& f);

}  // namespace octbal
