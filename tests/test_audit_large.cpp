/// \file test_audit_large.cpp
/// \brief Large-scale tier of the invariant audit: ~10^5-octant cases on
/// 64-192 simulated ranks, checked with the oracle-free battery (structure,
/// balance, scramble/partition invariance, thread determinism — see
/// Tier::kLarge in src/audit/case.hpp).  These cases are far beyond what
/// the serial fixed-point oracle can afford, which is exactly why they
/// exist: the 3D fractal-corner defect of the Table II λ profile (fixed in
/// core/lambda.hpp, see chain_reaches) only materializes at level
/// differences >= 3 and slipped through every full-tier sweep.  Labeled
/// `fuzz_large` in CMake; CI runs the label as its own step.

#include <gtest/gtest.h>

#include "audit/fuzzer.hpp"

namespace octbal::audit {
namespace {

TEST(AuditLarge, OracleFreeBatteryPassesSeedSweep) {
  FuzzOptions opt;
  opt.tier = Tier::kLarge;
  opt.seeds = 4;
  opt.seed0 = 20;  // covers 3D k=1/k=2 bricks, a Möbius ring, a 1.8e5-leaf 2D brick
  const FuzzSummary sum = Fuzzer(opt).run();
  ASSERT_TRUE(sum.ok()) << (sum.failures.empty()
                                ? std::string("counted failures without reports")
                                : sum.failures.front().repro);
  EXPECT_EQ(sum.cases_run, 4);
}

TEST(AuditLarge, LambdaFractalCornerRegressionSeeds) {
  // Seeds 8 and 15 are deep periodic 3D bricks with k=1 and k=2: the exact
  // workloads where the Carry3-based λ profile was one size exponent too
  // fine on the Sierpinski-like corner regions, producing forests the
  // balance invariant rejects.  They must stay green against the exact
  // chain-covering decision.
  FuzzOptions opt;
  opt.tier = Tier::kLarge;
  const Fuzzer fz(opt);
  for (std::uint64_t seed : {8ull, 15ull}) {
    const CaseConfig cfg = random_case_config(seed, Tier::kLarge);
    FuzzFailure f;
    EXPECT_TRUE(fz.run_case(cfg, &f))
        << "seed " << seed << " regressed: " << f.invariant << " -- "
        << f.detail;
  }
}

TEST(AuditLarge, DeltaBalanceRegressionSeed) {
  // Large-tier seed 2 (inside CI's 12-seed sweep) hit the same push-round
  // defect as the full-tier seeds in Audit.DeltaBalanceRegressionSeeds:
  // ripple inside a rank's own run after a grouped apply was lost.
  FuzzOptions opt;
  opt.tier = Tier::kLarge;
  const Fuzzer fz(opt);
  const CaseConfig cfg = random_case_config(2, Tier::kLarge);
  FuzzFailure f;
  EXPECT_TRUE(fz.run_case(cfg, &f))
      << "seed 2 regressed: " << f.invariant << " -- " << f.detail;
}

TEST(AuditLarge, CasesAreGenuinelyLarge) {
  // The tier only earns its name if the generator actually scales: every
  // large-tier case simulates at least 64 ranks, and the sweep range above
  // contains a >= 10^5-leaf input.  (Pre-balance counts; balancing only
  // grows them.)
  std::size_t max_leaves = 0;
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    const CaseConfig cfg = random_case_config(seed, Tier::kLarge);
    EXPECT_GE(cfg.ranks, 64) << "seed " << seed;
    const std::size_t n = cfg.dim == 2 ? make_case<2>(cfg).leaves.size()
                                       : make_case<3>(cfg).leaves.size();
    EXPECT_GE(n, 5000u) << "seed " << seed;
    max_leaves = std::max(max_leaves, n);
  }
  EXPECT_GE(max_leaves, 100000u);
}

TEST(AuditLarge, TierScalesEverySeed) {
  // Shape draws (dimension, balance condition) precede the size override
  // and must match the full tier seed for seed; the size knobs must be
  // scaled up for *every* seed, not just the hand-picked ones above.  Both
  // tiers still cover both subtree algorithms and all notify variants —
  // checked as a distribution, since the override shifts the draw stream.
  int large_old = 0, large_new = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CaseConfig full = random_case_config(seed, Tier::kFull);
    const CaseConfig large = random_case_config(seed, Tier::kLarge);
    EXPECT_EQ(full.dim, large.dim) << seed;
    EXPECT_EQ(full.k, large.k) << seed;
    EXPECT_GE(large.ranks, 64) << seed;
    EXPECT_GE(large.lmax, full.lmax) << seed;
    (large.opt.subtree == SubtreeAlgo::kOld ? large_old : large_new)++;
  }
  EXPECT_GT(large_old, 0);
  EXPECT_GT(large_new, 0);
}

}  // namespace
}  // namespace octbal::audit
