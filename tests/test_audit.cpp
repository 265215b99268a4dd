/// \file test_audit.cpp
/// \brief Self-tests of the randomized invariant-audit subsystem: a clean
/// pipeline must survive a seed sweep, and a deliberately injected balance
/// bug (a skipped insulation-layer neighbor) must be caught by the
/// invariants and reduced by the shrinker to a small replayable repro.

#include <gtest/gtest.h>

#include <algorithm>

#include "audit/fuzzer.hpp"
#include "audit/invariants.hpp"
#include "audit/shrinker.hpp"
#include "util/parallel.hpp"

namespace octbal::audit {
namespace {

TEST(Audit, CleanPipelinePassesSeedSweep) {
  FuzzOptions opt;
  opt.seeds = 50;
  opt.seed0 = 2012;
  const FuzzSummary sum = Fuzzer(opt).run();
  ASSERT_TRUE(sum.ok()) << (sum.failures.empty()
                                ? std::string("counted failures without reports")
                                : sum.failures.front().repro);
  EXPECT_EQ(sum.cases_run, 50);
}

TEST(Audit, ParallelJobsMatchSerialVerdicts) {
  // The strided jobs>1 fan-out must reach the same verdicts (thread-sweep
  // checks are disabled there, so only compare pass/fail and seeds).
  FuzzOptions opt;
  opt.seeds = 24;
  opt.seed0 = 7;
  opt.shrink = false;
  const FuzzSummary serial = Fuzzer(opt).run();
  opt.jobs = 2;
  const FuzzSummary par2 = Fuzzer(opt).run();
  EXPECT_EQ(par2.cases_run, 24);
  EXPECT_EQ(serial.failed, par2.failed);
}

TEST(Audit, InjectedBalanceBugIsCaughtAndShrunk) {
  FuzzOptions opt;
  opt.seeds = 120;
  opt.seed0 = 1;
  opt.inject = FaultInjection::kSkipInsulationNeighbor;
  opt.max_failures = 4;
  const FuzzSummary sum = Fuzzer(opt).run();
  ASSERT_GT(sum.failed, 0)
      << "fault injection produced no failures: the invariants have no teeth";
  ASSERT_FALSE(sum.failures.empty());

  std::size_t smallest = SIZE_MAX;
  for (const auto& f : sum.failures) {
    // The injected defect loses balance constraints, so it must surface as
    // a wrong balanced forest.
    EXPECT_TRUE(f.invariant == "balance" || f.invariant == "serial_diff")
        << f.invariant << ": " << f.detail;
    EXPECT_NE(f.repro.find("TEST(FuzzRegression, Seed"), std::string::npos);
    EXPECT_NE(f.repro.find("forest_balance_serial"), std::string::npos);
    EXPECT_FALSE(f.config.empty());
    EXPECT_GT(f.repro_octants, 0u);
    smallest = std::min(smallest, f.repro_octants);
  }
  EXPECT_LE(smallest, 20u)
      << "shrinker failed to reduce any failure to a small repro";
}

TEST(Audit, InjectedOrderDependentReduceIsCaught) {
  // The second fault-injection channel: phase 4 folds response senders
  // through a delivery-order-sensitive hash and drops a query group when
  // the fold lands odd.  Under canonical delivery the damage is a
  // deterministic wrong forest (balance / serial_diff); under scrambled
  // delivery the forest changes with the order, which only the scramble
  // invariant can see.
  FuzzOptions opt;
  opt.seeds = 60;
  opt.seed0 = 1;
  opt.inject = FaultInjection::kOrderDependentReduce;
  opt.max_failures = 4;
  const FuzzSummary sum = Fuzzer(opt).run();
  ASSERT_GT(sum.failed, 0)
      << "fault injection produced no failures: the invariants have no teeth";
  for (const auto& f : sum.failures) {
    EXPECT_TRUE(f.invariant == "balance" ||
                f.invariant == "scramble_invariance" ||
                f.invariant == "serial_diff")
        << f.invariant << ": " << f.detail;
    EXPECT_NE(f.repro.find("TEST(FuzzRegression, Seed"), std::string::npos);
    EXPECT_FALSE(f.config.empty());
  }
}

TEST(Audit, InjectedStaleMarkerNudgeIsCaughtAndShrunk) {
  // The repartition fault channel (kStaleMarkers; the test keeps the
  // channel's former name): the re-split migrates the octants and charges
  // the traffic but skips the refresh_markers() rebuild — "moved the
  // data, forgot the index".  Only the repartition/preserves_content
  // invariant looks at the partition index, so every failure must surface
  // there, and the shrinker must still reduce the failing mesh (the fault
  // needs a re-split that actually moves octants, which survives
  // coarsening down to a few dozen leaves).
  FuzzOptions opt;
  opt.seeds = 120;
  opt.seed0 = 1;
  opt.inject = FaultInjection::kStaleMarkers;
  opt.max_failures = 4;
  const FuzzSummary sum = Fuzzer(opt).run();
  ASSERT_GT(sum.failed, 0)
      << "fault injection produced no failures: the invariant has no teeth";
  std::size_t smallest = SIZE_MAX;
  for (const auto& f : sum.failures) {
    EXPECT_EQ(f.invariant, "repartition/preserves_content")
        << f.invariant << ": " << f.detail;
    EXPECT_NE(f.repro.find("repartition(f, ropt, &comm)"), std::string::npos);
    EXPECT_NE(f.repro.find("ropt.inject"), std::string::npos);
    EXPECT_FALSE(f.config.empty());
    EXPECT_GT(f.repro_octants, 0u);
    smallest = std::min(smallest, f.repro_octants);
  }
  EXPECT_LE(smallest, 32u)
      << "shrinker failed to reduce any failure to a small repro";
}

TEST(Audit, StaleMarkerNudgeReplaysDeterministically) {
  // Seed 18 draws a two-round insulation-weighted case whose re-split
  // moves octants (covered by the sweep above); the pinned replay must
  // fail the same way every time.
  FuzzOptions opt;
  opt.inject = FaultInjection::kStaleMarkers;
  opt.shrink = false;
  const Fuzzer fz(opt);
  CaseConfig cfg = random_case_config(18);
  ASSERT_EQ(cfg.repartition, RepartitionKind::kWeightedInsulation);
  ASSERT_EQ(cfg.repartition_rounds, 2);
  cfg.opt.inject = opt.inject;
  FuzzFailure a, b;
  ASSERT_FALSE(fz.run_case(cfg, &a));
  ASSERT_FALSE(fz.run_case(cfg, &b));
  EXPECT_EQ(a.invariant, "repartition/preserves_content") << a.detail;
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.repro, b.repro);
}

TEST(Audit, ScrambleInvariantCatchesOrderDependence) {
  // Seed 173 draws a scrambled-delivery case where the injected fold picks
  // different query groups to drop under the two delivery orders: every
  // per-order run is individually plausible, so only comparing the two
  // forests (the scramble invariant) exposes the defect.  This is the
  // round-trip proof that the invariant has teeth beyond re-checking
  // balance.
  FuzzOptions opt;
  opt.inject = FaultInjection::kOrderDependentReduce;
  opt.shrink = false;
  const Fuzzer fz(opt);
  CaseConfig cfg = random_case_config(173);
  ASSERT_TRUE(cfg.scramble);
  cfg.opt.inject = opt.inject;
  FuzzFailure f;
  ASSERT_FALSE(fz.run_case(cfg, &f));
  EXPECT_EQ(f.invariant, "scramble_invariance") << f.detail;
  EXPECT_NE(f.detail.find("delivery order"), std::string::npos) << f.detail;
}

TEST(Audit, FailuresReplayDeterministically) {
  FuzzOptions opt;
  opt.inject = FaultInjection::kSkipInsulationNeighbor;
  const Fuzzer fz(opt);
  // Seed 9 is a known failing seed under injection (covered by the sweep
  // above); replaying it twice must give byte-identical reports.
  CaseConfig cfg = random_case_config(9);
  cfg.opt.inject = opt.inject;
  FuzzFailure a, b;
  ASSERT_FALSE(fz.run_case(cfg, &a));
  ASSERT_FALSE(fz.run_case(cfg, &b));
  EXPECT_EQ(a.invariant, b.invariant);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.repro, b.repro);
  EXPECT_EQ(a.repro_octants, b.repro_octants);
}

TEST(Audit, ShrunkInputStaysValidForest) {
  // Shrinking must preserve per-tree completeness at every accepted step;
  // verify the end state explicitly for a known failing case.
  CaseConfig cfg = random_case_config(9);
  cfg.opt.inject = FaultInjection::kSkipInsulationNeighbor;
  ASSERT_EQ(cfg.dim, 2);
  const CaseData<2> data = make_case<2>(cfg);
  const InvariantReport rep = Invariants::check<2>(cfg, data);
  ASSERT_FALSE(rep.ok);
  const ShrinkOutcome<2> s = Shrinker::shrink<2>(cfg, data, rep);
  EXPECT_LT(s.leaves.size(), data.leaves.size());
  EXPECT_FALSE(s.report.ok);
  Forest<2> f(data.conn, s.cfg.ranks, s.leaves);
  EXPECT_TRUE(f.is_valid());
}

TEST(Audit, SfcBisectionReaches3dMinimumUnderTightBudget) {
  // Seed 18 under kOrderDependentReduce is a deep 3D case (778 leaves)
  // whose failure lives in one window of the space-filling curve.  Pure
  // ancestor collapse walks toward the minimum one accepted coarsening
  // at a time and, with only 15 evals, stalls at 71 octants; the SFC
  // bisection stage removes half the curve per accepted eval and reaches
  // the 29-octant minimum inside the same budget.  Pin both the tight-
  // budget quality and the full-budget minimum, plus validity of the
  // shrunk forest (bisected halves are re-completed per tree).
  CaseConfig cfg = random_case_config(18);
  cfg.opt.inject = FaultInjection::kOrderDependentReduce;
  ASSERT_EQ(cfg.dim, 3);
  const CaseData<3> data = make_case<3>(cfg);
  ASSERT_GT(data.leaves.size(), 700u);
  const InvariantReport rep = Invariants::check<3>(cfg, data);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.invariant, "balance") << rep.detail;

  const ShrinkOutcome<3> tight = Shrinker::shrink<3>(cfg, data, rep, 15);
  EXPECT_LT(tight.leaves.size(), 40u)
      << "bisection stage regressed: collapse-only stalls at ~71 here";
  EXPECT_LE(tight.evals, 15);

  const ShrinkOutcome<3> full = Shrinker::shrink<3>(cfg, data, rep);
  EXPECT_LT(full.leaves.size(), 40u);
  EXPECT_FALSE(full.report.ok);
  Forest<3> f(data.conn, full.cfg.ranks, full.leaves);
  EXPECT_TRUE(f.is_valid());
}

TEST(Audit, ShrinkPreservesDivergenceAttribution) {
  // The shrinker disables attribution inside its eval loop (it would
  // triple the cost of every probe) but must re-attribute the final
  // shrunk case, so the reported round/edge points at the minimized
  // repro's comm traffic.
  CaseConfig cfg = random_case_config(9);
  cfg.opt.inject = FaultInjection::kSkipInsulationNeighbor;
  ASSERT_EQ(cfg.dim, 2);
  const CaseData<2> data = make_case<2>(cfg);
  const InvariantReport rep = Invariants::check<2>(cfg, data);
  ASSERT_FALSE(rep.ok);
  EXPECT_GE(rep.divergent_round, 0) << rep.detail;
  EXPECT_FALSE(rep.flight_doc.empty());
  const ShrinkOutcome<2> s = Shrinker::shrink<2>(cfg, data, rep);
  ASSERT_FALSE(s.report.ok);
  EXPECT_GE(s.report.divergent_round, 0) << s.report.detail;
  EXPECT_FALSE(s.report.divergent_edge.empty());
  EXPECT_FALSE(s.report.flight_doc.empty());
  EXPECT_NE(s.report.detail.find("comm divergence"), std::string::npos)
      << s.report.detail;
}

TEST(Audit, AttributionCanBeDisabled) {
  CaseConfig cfg = random_case_config(9);
  cfg.opt.inject = FaultInjection::kSkipInsulationNeighbor;
  cfg.attribute_divergence = false;
  ASSERT_EQ(cfg.dim, 2);
  const CaseData<2> data = make_case<2>(cfg);
  const InvariantReport rep = Invariants::check<2>(cfg, data);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.divergent_round, -1);
  EXPECT_TRUE(rep.flight_doc.empty());
  EXPECT_EQ(rep.detail.find("comm divergence"), std::string::npos)
      << rep.detail;
}

TEST(Audit, FuzzReportCarriesAttribution) {
  // The machine-readable sweep summary must expose the divergence so CI
  // can upload the flight logs of failing seeds.
  FuzzOptions opt;
  opt.seeds = 1;
  opt.seed0 = 9;
  opt.inject = FaultInjection::kSkipInsulationNeighbor;
  opt.shrink = false;
  const FuzzSummary sum = Fuzzer(opt).run();
  ASSERT_EQ(sum.failed, 1);
  const std::string doc = fuzz_summary_json(opt, sum);
  EXPECT_NE(doc.find("\"divergent_round\":"), std::string::npos);
  EXPECT_NE(doc.find("\"divergent_edge\":"), std::string::npos);
  EXPECT_NE(doc.find("\"octbal-flight-v1\""), std::string::npos);
}

TEST(Audit, DeltaBalanceRegressionSeeds) {
  // Seeds 1629 and 1691 are D = 2, k = 1 churn cases on multi-tree or
  // periodic domains whose delta_balance output was not 2:1-balanced: a
  // grouped apply in a push round created leaves that rippled into their
  // own rank's run, and the next round's walk dropped those self-directed
  // constraints.  They must stay green.
  FuzzOptions opt;
  const Fuzzer fz(opt);
  for (std::uint64_t seed : {1629ull, 1691ull}) {
    const CaseConfig cfg = random_case_config(seed, Tier::kFull);
    FuzzFailure f;
    EXPECT_TRUE(fz.run_case(cfg, &f))
        << "seed " << seed << " regressed: " << f.invariant << " -- "
        << f.detail;
  }
}

TEST(Audit, ChurnDrawsStayPut) {
  // The churn block draws its refine and coarsen decisions serially, in
  // rank-major SFC order, and the rank workers only look them up.  The
  // chained checksums of the churned forests (after each step's refine)
  // were recorded when the predicates drew from the Rng themselves, rank
  // after rank; they hold at the case's thread count.
  const int saved = par::num_threads();
  for (const auto& [seed, want] :
       {std::pair{1629ull, 0x3415b25584ce4e2aull},
        std::pair{1691ull, 0x7e12ce73b5391e24ull}}) {
    const CaseConfig cfg = random_case_config(seed, Tier::kFull);
    ASSERT_GT(cfg.churn_steps, 0) << seed;
    ASSERT_GT(cfg.ranks, 1) << seed;
    par::set_num_threads(cfg.threads);
    const InvariantReport rep =
        Invariants::check<2>(cfg, make_case<2>(cfg));
    EXPECT_TRUE(rep.ok) << seed << ": " << rep.invariant;
    EXPECT_EQ(rep.churn_checksum, want) << "seed " << seed;
  }
  par::set_num_threads(saved);
}

TEST(Audit, CaseStreamPinned) {
  // A seed's case is its identity: seed-pinned tests and shrunk repros
  // replay by seed alone, so the draw sequence must not drift when a
  // dimension is retired or re-mapped.  Seeds 1629 and 1691 are the
  // regression pair above (1629's churn block keeps its power only while
  // its churn draws stay put, which ChurnDrawsStayPut checks); large-tier
  // seed 2 covers the size-knob overrides.
  EXPECT_EQ(describe(random_case_config(1629, Tier::kFull)),
            "seed=1629 dim=2 brick=1x2 periodic=00 ranks=5 threads=4 k=1 "
            "lmax=4 density=0.224695 workload=random partition=weighted "
            "scramble=0 repart=insulation repart_rounds=1 churn=3 "
            "churn_coarsen=1 subtree=new seed_response=1 grouped=1 "
            "notify=notify");
  EXPECT_EQ(describe(random_case_config(1691, Tier::kFull)),
            "seed=1691 dim=2 ring=3 orient=0 ranks=8 threads=2 k=1 lmax=5 "
            "density=0.371543 workload=random partition=uniform scramble=0 "
            "repart=octants repart_rounds=2 churn=2 churn_coarsen=1 "
            "subtree=new seed_response=0 grouped=1 notify=notify");
  EXPECT_EQ(describe(random_case_config(2, Tier::kLarge)),
            "seed=2 tier=large dim=2 brick=1x1 periodic=01 ranks=128 "
            "threads=2 k=1 lmax=10 density=0.694114 workload=random "
            "partition=even scramble=0 repart=octants repart_rounds=2 "
            "churn=2 churn_coarsen=1 subtree=old seed_response=1 grouped=1 "
            "notify=notify");
}

TEST(Audit, CaseGenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADull}) {
    const CaseConfig a = random_case_config(seed);
    const CaseConfig b = random_case_config(seed);
    EXPECT_EQ(describe(a), describe(b));
    if (a.dim == 2) {
      EXPECT_EQ(make_case<2>(a).leaves, make_case<2>(b).leaves);
    } else {
      EXPECT_EQ(make_case<3>(a).leaves, make_case<3>(b).leaves);
    }
  }
}

}  // namespace
}  // namespace octbal::audit
