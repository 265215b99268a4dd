#include "audit/case.hpp"

#include <cassert>
#include <sstream>

#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal::audit {

CaseConfig random_case_config(std::uint64_t seed, Tier tier) {
  Rng rng(seed);
  CaseConfig c;
  c.seed = seed;
  c.tier = tier;
  c.dim = rng.chance(0.6) ? 2 : 3;

  if (rng.chance(0.75)) {
    c.conn = ConnKind::kBrick;
    const int span = c.dim == 2 ? 3 : 2;
    for (int i = 0; i < c.dim; ++i) {
      c.dims[i] = 1 + static_cast<int>(rng.below(span));
      c.periodic[i] = rng.chance(0.25);
    }
  } else {
    c.conn = ConnKind::kRing;
    c.ring_trees = 1 + static_cast<int>(rng.below(3));
    c.ring_orient =
        static_cast<std::uint8_t>(rng.below(c.dim == 2 ? 2 : 8));
  }

  c.ranks = 1 + static_cast<int>(rng.below(8));
  c.threads = 1 + static_cast<int>(rng.below(4));
  c.k = 1 + static_cast<int>(rng.below(c.dim));
  // Size control: the serial oracle is run per case, so keep the worst
  // case (dense recursive 3D refinement) bounded to a few thousand leaves.
  c.lmax = c.dim == 2 ? 3 + static_cast<int>(rng.below(3))
                      : 2 + static_cast<int>(rng.below(2));
  c.density = 0.2 + rng.uniform() * (c.dim == 2 ? 0.35 : 0.25);
  if (tier == Tier::kLarge) {
    // Oracle-free battery: cases can afford ~10^5 octants and P >= 64.
    // The switch draws above stay in place so the pipeline-configuration
    // coverage matches the full tier seed for seed; only the size knobs
    // (ranks, depth, refinement density) are overridden.
    c.ranks = 64 * (1 + static_cast<int>(rng.below(3)));  // 64, 128, 192
    c.lmax = c.dim == 2 ? 9 + static_cast<int>(rng.below(2))
                        : 6 + static_cast<int>(rng.below(2));
    c.density = c.dim == 2 ? 0.55 + rng.uniform() * 0.15
                           : 0.34 + rng.uniform() * 0.08;
  }

  const double w = rng.uniform();
  if (c.conn == ConnKind::kBrick && w < 0.15) {
    c.workload = WorkloadKind::kIceSheet;  // needs lattice tree_coords
  } else if (w < 0.35) {
    c.workload = WorkloadKind::kFractal;
  } else {
    c.workload = WorkloadKind::kRandom;
  }

  const double p = rng.uniform();
  c.partition = p < 0.4   ? PartitionKind::kEven
                : p < 0.7 ? PartitionKind::kUniform
                          : PartitionKind::kWeighted;
  c.scramble = rng.chance(0.5);

  c.opt.k = c.k;
  c.opt.subtree = rng.chance(0.5) ? SubtreeAlgo::kNew : SubtreeAlgo::kOld;
  c.opt.seed_response = rng.chance(0.7);
  c.opt.grouped_rebalance = rng.chance(0.7);
  const double n = rng.uniform();
  c.opt.notify_algo = n < 0.5   ? NotifyAlgo::kNotify
                      : n < 0.75 ? NotifyAlgo::kRanges
                                 : NotifyAlgo::kNaive;
  // A retired dimension (queries riding the Notify rounds) drew here for
  // Notify cases.  The draw stays, value discarded, so the draws below keep
  // their values.
  if (c.opt.notify_algo == NotifyAlgo::kNotify) (void)rng.chance(0.4);
  c.opt.notify_max_ranges = rng.chance(0.5) ? 8 : 2;

  // Repartition dimensions draw from their own stream: the draws above are
  // load-bearing (seed-pinned self-tests and shrunk repros depend on the
  // exact sequence), so new dimensions must not perturb them.
  Rng rng2(seed ^ 0xC0FFEE0DD15EA5E5ull);
  const double rp = rng2.uniform();
  c.repartition = rp < 0.4   ? RepartitionKind::kNone
                  : rp < 0.6 ? RepartitionKind::kWeightedOctants
                             : RepartitionKind::kWeightedInsulation;
  c.repartition_rounds = 1 + static_cast<int>(rng2.below(2));
  // Two retired dimensions (a per-cut shift cap and a search budget) drew
  // here.  Their draws stay, values discarded, so the churn draws below
  // (and every seed-pinned case that depends on them) keep their values.
  (void)rng2.chance(0.5);
  if (!rng2.chance(0.25)) (void)rng2.below(4);
  // Churn lifecycle dimensions: random refine/coarsen batches after the
  // main balance, each checked delta-vs-full ("churn/delta_equiv").
  c.churn_steps =
      rng2.chance(0.35) ? 1 + static_cast<int>(rng2.below(3)) : 0;
  c.churn_coarsen = rng2.chance(0.7);
  return c;
}

RepartitionOptions repartition_options(const CaseConfig& c) {
  RepartitionOptions o;
  o.weight = c.repartition == RepartitionKind::kWeightedInsulation
                 ? RepartitionWeight::kInsulation
                 : RepartitionWeight::kOctants;
  return o;
}

std::string describe(const CaseConfig& c) {
  std::ostringstream os;
  os << "seed=" << c.seed;
  if (c.tier == Tier::kLarge) os << " tier=large";
  os << " dim=" << c.dim;
  if (c.conn == ConnKind::kBrick) {
    os << " brick=" << c.dims[0];
    for (int i = 1; i < c.dim; ++i) os << "x" << c.dims[i];
    os << " periodic=";
    for (int i = 0; i < c.dim; ++i) os << (c.periodic[i] ? "1" : "0");
  } else {
    os << " ring=" << c.ring_trees
       << " orient=" << static_cast<int>(c.ring_orient);
  }
  os << " ranks=" << c.ranks << " threads=" << c.threads << " k=" << c.k
     << " lmax=" << c.lmax << " density=" << c.density;
  os << " workload="
     << (c.workload == WorkloadKind::kRandom    ? "random"
         : c.workload == WorkloadKind::kFractal ? "fractal"
                                                : "icesheet");
  os << " partition="
     << (c.partition == PartitionKind::kEven      ? "even"
         : c.partition == PartitionKind::kUniform ? "uniform"
                                                  : "weighted");
  os << " scramble=" << (c.scramble ? 1 : 0);
  if (c.repartition != RepartitionKind::kNone) {
    os << " repart="
       << (c.repartition == RepartitionKind::kWeightedOctants ? "octants"
                                                               : "insulation")
       << " repart_rounds=" << c.repartition_rounds;
  }
  if (c.churn_steps > 0) {
    os << " churn=" << c.churn_steps
       << " churn_coarsen=" << (c.churn_coarsen ? 1 : 0);
  }
  os << " subtree="
     << (c.opt.subtree == SubtreeAlgo::kNew ? "new" : "old")
     << " seed_response=" << (c.opt.seed_response ? 1 : 0)
     << " grouped=" << (c.opt.grouped_rebalance ? 1 : 0);
  os << " notify="
     << (c.opt.notify_algo == NotifyAlgo::kNotify   ? "notify"
         : c.opt.notify_algo == NotifyAlgo::kRanges ? "ranges"
                                                    : "naive");
  if (c.opt.inject != FaultInjection::kNone) {
    os << " inject=" << static_cast<int>(c.opt.inject);
  }
  return os.str();
}

template <int D>
CaseData<D> make_case(const CaseConfig& cfg) {
  assert(cfg.dim == D);
  Connectivity<D> conn = Connectivity<D>::unitcube();
  if (cfg.conn == ConnKind::kBrick) {
    std::array<int, D> dims;
    std::array<bool, D> per;
    for (int i = 0; i < D; ++i) {
      dims[i] = cfg.dims[i];
      per[i] = cfg.periodic[i];
    }
    conn = Connectivity<D>::brick(dims, per);
  } else {
    conn = Connectivity<D>::ring(cfg.ring_trees, cfg.ring_orient);
  }

  Forest<D> f(conn, 1, 1);
  switch (cfg.workload) {
    case WorkloadKind::kRandom: {
      Rng rng(cfg.seed ^ 0x5EEDFACEu);
      random_refine(f, rng, cfg.lmax, cfg.density);
      break;
    }
    case WorkloadKind::kFractal:
      fractal_refine(f, cfg.lmax);
      break;
    case WorkloadKind::kIceSheet:
      icesheet_refine(f, cfg.lmax);
      break;
  }
  return CaseData<D>{conn, f.gather()};
}

template CaseData<2> make_case<2>(const CaseConfig&);
template CaseData<3> make_case<3>(const CaseConfig&);

}  // namespace octbal::audit
