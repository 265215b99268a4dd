/// \file test_churn.cpp
/// \brief Property battery for the AMR churn lifecycle: Forest::coarsen
/// (family merge, ownership, the 2:1-safety veto), the dirty log,
/// FrameTransform::inverse, the delta report and memory peaks, and — the
/// load-bearing claim — delta_balance() byte-identity with the full
/// one-pass pipeline across sustained refine → balance → repartition →
/// coarsen steps at several rank and thread counts (the tsan label runs
/// this file under the threaded rank engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/neighborhood.hpp"
#include "forest/delta_balance.hpp"
#include "forest/repartition.hpp"
#include "obs/mem.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

template <int D>
bool forests_identical(const Forest<D>& a, const Forest<D>& b) {
  if (a.num_ranks() != b.num_ranks()) return false;
  for (int r = 0; r < a.num_ranks(); ++r) {
    if (!(a.local(r) == b.local(r))) return false;
  }
  return a.markers() == b.markers();
}

void prebalance(Forest<3>& f) {
  SimComm warm(f.num_ranks());
  warm.set_record_rounds(false);
  balance(f, BalanceOptions::new_config(), warm);
  f.clear_dirty();
}

// ---------------------------------------------------------------------------
// FrameTransform::inverse

TEST(FrameInverse, RoundTripsEveryRingTransform2D) {
  // The glued ring (including the Möbius orientation) exercises permuted,
  // reflected and offset frames; inverse() must undo apply() for octants
  // at several levels and positions.
  for (const std::uint8_t orient : {std::uint8_t{0}, std::uint8_t{1}}) {
    const auto conn = Connectivity<2>::ring(4, orient);
    Rng rng(7u + orient);
    for (int t = 0; t < conn.num_trees(); ++t) {
      Octant<2> o = root_octant<2>();
      for (int step = 0; step < 40; ++step) {
        o = root_octant<2>();
        const int lv = 1 + static_cast<int>(rng.below(3));
        for (int l = 0; l < lv; ++l) {
          o = child(o, static_cast<int>(rng.below(num_children<2>)));
        }
        for (const auto& off : full_offsets<2>()) {
          const auto nb = conn.neighbor(t, o, off);
          if (!nb) continue;
          const auto inv = nb->xform.inverse();
          EXPECT_EQ(nb->xform.apply(inv.apply(o)), o);
          EXPECT_EQ(inv.apply(nb->xform.apply(o)), o);
        }
      }
    }
  }
}

TEST(FrameInverse, IdentityIsItsOwnInverse) {
  const auto id = FrameTransform<3>::identity();
  EXPECT_EQ(id.inverse(), id);
}

// ---------------------------------------------------------------------------
// Delta report

/// Every count of a delta_balance() report plus the accounted-memory
/// snapshot of its session, as one comparable string.
std::string delta_fingerprint(const DeltaBalanceReport& rep,
                              const obs::MemSession& mem) {
  return std::to_string(rep.dirty_logged) + " " +
         std::to_string(rep.dirty_validated) + " " +
         std::to_string(rep.region_octants) + " " +
         std::to_string(rep.constraints_sent) + " " +
         std::to_string(rep.octants_created) + " " +
         std::to_string(rep.rounds) + " " +
         std::to_string(rep.octants_before) + " " +
         std::to_string(rep.octants_after) + " " +
         std::to_string(rep.comm.messages) + " " +
         std::to_string(rep.comm.bytes) + "\n" + mem.snapshot().serialize();
}

TEST(DirtyRegion, DeltaReportAndMemoryAreThreadInvariant) {
  // The per-rank validation and pre-pass run concurrently, and the
  // pre-pass charges its own rank slots; the report counts and the whole
  // accounted ledger must not notice.
  ThreadGuard guard;
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  std::string first;
  for (const int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 16, 1);
    front_refine(f, 5, cp, 0);
    f.partition_uniform();
    prebalance(f);
    std::string seen;
    for (int step = 1; step <= 3; ++step) {
      front_refine(f, 5, cp, step);
      SimComm dc(16);
      dc.set_record_rounds(false);
      obs::MemSession mem(16);
      f.account_memory();
      const DeltaBalanceReport rep =
          delta_balance(f, BalanceOptions::new_config(), dc);
      // Every validated entry is a leaf of a run the pre-pass rebuilt.
      EXPECT_GE(rep.region_octants, rep.dirty_validated);
      EXPECT_LE(rep.region_octants, rep.octants_before);
      EXPECT_GT(rep.region_octants, 0u);
      seen += delta_fingerprint(rep, mem);
      front_coarsen(f, cp, step, 3);
    }
    if (first.empty()) {
      first = seen;
    } else {
      EXPECT_EQ(seen, first) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Coarsen

TEST(Coarsen, RefineCoarsenRoundTripRestoresChecksum) {
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 4, 1);
  const std::uint64_t sum0 = forest_checksum(f);
  const std::uint64_t n0 = f.global_num_octants();
  // Refine one sweep everywhere, then coarsen everything back: with no
  // veto (balance_k = 0) every family collapses and the original leaf
  // set returns exactly.
  f.refine([](const TreeOct<3>&) { return true; }, false);
  EXPECT_EQ(f.global_num_octants(), n0 * num_children<3>);
  f.coarsen([](const TreeOct<3>&) { return true; }, 0);
  EXPECT_EQ(f.global_num_octants(), n0);
  EXPECT_EQ(forest_checksum(f), sum0);
  EXPECT_TRUE(f.is_valid());
}

TEST(Coarsen, LogsCollapsedParentsInDirtyLog) {
  Forest<2> f(Connectivity<2>::brick({1, 1}), 1, 2);
  f.clear_dirty();
  const std::uint64_t n0 = f.global_num_octants();
  f.coarsen([](const TreeOct<2>&) { return true; }, 0);
  EXPECT_EQ(f.global_num_octants(), n0 / num_children<2>);
  EXPECT_EQ(f.dirty().size(), n0 / num_children<2>);
}

TEST(Coarsen, VetoKeepsBalancedForestBalanced) {
  // A graded icesheet mesh, balanced, then aggressively coarsened with
  // the veto on: the result must still satisfy the 2:1 condition.  The
  // same sweep with the veto off breaks it (sanity that the predicate is
  // actually aggressive enough to need the veto).
  Rng rng(99);
  for (int trial = 0; trial < 3; ++trial) {
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 8, 1);
    IceSheetParams p;
    p.seed = 2012 + trial;
    icesheet_refine(f, 5, p);
    prebalance(f);
    ASSERT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));

    Forest<3> noveto = f;
    f.coarsen([&](const TreeOct<3>&) { return true; }, 3);
    EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3))
        << "veto'd coarsen broke 2:1 balance (trial " << trial << ")";
    EXPECT_TRUE(f.is_valid());

    noveto.coarsen([&](const TreeOct<3>&) { return true; }, 0);
    EXPECT_FALSE(
        forest_is_balanced(noveto.gather(), noveto.connectivity(), 3))
        << "unveto'd full coarsen unexpectedly stayed balanced — the veto "
           "test is vacuous (trial "
        << trial << ")";
  }
}

TEST(Coarsen, OnlyCompleteSingleRankFamiliesCollapse) {
  // With the family split across two ranks, no member may collapse.
  Forest<2> f(Connectivity<2>::brick({1, 1}), 2, 1);
  ASSERT_EQ(f.global_num_octants(), 4u);
  ASSERT_EQ(f.local(0).size(), 2u);
  f.coarsen([](const TreeOct<2>&) { return true; }, 0);
  EXPECT_EQ(f.global_num_octants(), 4u);
}

// ---------------------------------------------------------------------------
// Delta balance

/// One churn step on the live forest: advected-front refine at \p step,
/// delta-balance, compare against a full balance of an identical copy.
/// Returns the copy's octant count so callers can sanity-check growth.
void expect_delta_equals_full(Forest<3>& f, const ChurnFrontParams& cp,
                              int lmax, int step, const char* what) {
  const BalanceOptions opt = BalanceOptions::new_config();
  front_refine(f, lmax, cp, step);
  Forest<3> ref = f;
  ref.clear_dirty();
  SimComm fc(ref.num_ranks());
  fc.set_record_rounds(false);
  balance(ref, opt, fc);
  SimComm dc(f.num_ranks());
  dc.set_record_rounds(false);
  const DeltaBalanceReport rep = delta_balance(f, opt, dc);
  EXPECT_TRUE(forests_identical(f, ref))
      << what << ": delta_balance diverged from full balance at step "
      << step << " (delta " << f.global_num_octants() << " leaves, full "
      << ref.global_num_octants() << ")";
  EXPECT_EQ(rep.octants_after, f.global_num_octants());
  EXPECT_TRUE(f.dirty().empty()) << "delta_balance must clear the dirty log";
}

TEST(DeltaBalance, ByteIdenticalAcrossTenChurnSteps) {
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  const int lmax = 5;
  RepartitionOptions ropt;
  ropt.mode = RepartitionMode::kWeighted;
  ropt.weight = RepartitionWeight::kInsulation;
  for (const int ranks : {4, 16}) {
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), ranks, 1);
    front_refine(f, lmax, cp, 0);
    f.partition_uniform();
    prebalance(f);
    for (int step = 1; step <= 10; ++step) {
      expect_delta_equals_full(
          f, cp, lmax, step,
          ("P=" + std::to_string(ranks)).c_str());
      SimComm pc(ranks);
      repartition(f, ropt, &pc);
      front_coarsen(f, cp, step, 3);
    }
  }
}

TEST(DeltaBalance, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  const int lmax = 5;
  for (const int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 16, 1);
    front_refine(f, lmax, cp, 0);
    f.partition_uniform();
    prebalance(f);
    for (int step = 1; step <= 3; ++step) {
      expect_delta_equals_full(
          f, cp, lmax, step,
          ("threads=" + std::to_string(threads)).c_str());
      front_coarsen(f, cp, step, 3);
    }
  }
}

TEST(DeltaBalance, IgnoresResponseSwitches) {
  // delta_balance honors only k and the subtree algorithm: every
  // seed_response x grouped_rebalance combination must give the forest a
  // full balance gives, the same report and the same accounted memory.
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  Forest<3> churned(Connectivity<3>::brick({4, 4, 1}), 16, 1);
  front_refine(churned, 5, cp, 0);
  churned.partition_uniform();
  prebalance(churned);
  front_refine(churned, 5, cp, 1);
  Forest<3> ref = churned;
  ref.clear_dirty();
  {
    SimComm fc(16);
    fc.set_record_rounds(false);
    balance(ref, BalanceOptions::new_config(), fc);
  }
  std::string first;
  for (const bool seeds : {true, false}) {
    for (const bool grouped : {true, false}) {
      BalanceOptions opt = BalanceOptions::new_config();
      opt.seed_response = seeds;
      opt.grouped_rebalance = grouped;
      Forest<3> f = churned;
      SimComm dc(16);
      dc.set_record_rounds(false);
      obs::MemSession mem(16);
      f.account_memory();
      const DeltaBalanceReport rep = delta_balance(f, opt, dc);
      const std::string what = "seed_response=" + std::to_string(seeds) +
                               " grouped_rebalance=" + std::to_string(grouped);
      EXPECT_TRUE(forests_identical(f, ref)) << what;
      EXPECT_GT(rep.rounds, 0) << what;
      const std::string seen = delta_fingerprint(rep, mem);
      if (first.empty()) {
        first = seen;
      } else {
        EXPECT_EQ(seen, first) << what;
      }
    }
  }
}

TEST(DeltaBalance, PeakNotAboveFullBalance) {
  // Incrementality must also win on memory: on every churn step the delta
  // pass's accounted peak stays at or below a full balance() of a copy of
  // the same forest.  Both sessions start with the mesh on their ledger:
  // the full one opens before the copy, the delta one re-charges the live
  // forest (as bench_churn measures them).
  ThreadGuard guard;
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  const BalanceOptions opt = BalanceOptions::new_config();
  for (const int threads : {1, 4}) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 16, 1);
    front_refine(f, 5, cp, 0);
    f.partition_uniform();
    prebalance(f);
    for (int step = 1; step <= 3; ++step) {
      front_refine(f, 5, cp, step);
      std::uint64_t full_peak = 0;
      {
        obs::MemSession mem(16);
        Forest<3> ref = f;
        ref.clear_dirty();
        SimComm fc(16);
        fc.set_record_rounds(false);
        balance(ref, opt, fc);
        full_peak = mem.snapshot().peak_bytes;
      }
      std::uint64_t delta_peak = 0;
      {
        obs::MemSession mem(16);
        f.account_memory();
        SimComm dc(16);
        dc.set_record_rounds(false);
        delta_balance(f, opt, dc);
        delta_peak = mem.snapshot().peak_bytes;
      }
      EXPECT_GT(delta_peak, 0u);
      EXPECT_LE(delta_peak, full_peak)
          << "threads=" << threads << " step " << step;
      front_coarsen(f, cp, step, 3);
    }
  }
}

TEST(DeltaBalance, NoopOnCleanForest) {
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 4, 1);
  fractal_refine(f, 4);
  prebalance(f);
  const std::vector<TreeOct<3>> before = f.gather();
  SimComm dc(4);
  const DeltaBalanceReport rep = delta_balance(f, BalanceOptions::new_config(), dc);
  EXPECT_EQ(rep.dirty_validated, 0u);
  EXPECT_EQ(rep.rounds, 0);
  EXPECT_EQ(rep.octants_created, 0u);
  EXPECT_EQ(f.gather(), before);
}

TEST(DeltaBalance, ThrowsOnOutOfRangeK) {
  // A runtime check, not an assert: release builds reject it too, before
  // the dirty log is consumed.
  Forest<2> f(Connectivity<2>::brick({2, 1}), 2, 2);
  f.refine([](const TreeOct<2>& to) { return to.tree == 0; }, false);
  const std::size_t logged = f.dirty().size();
  ASSERT_GT(logged, 0u);
  for (const int k : {-1, 3}) {
    BalanceOptions opt = BalanceOptions::new_config();
    opt.k = k;
    SimComm dc(2);
    EXPECT_THROW(delta_balance(f, opt, dc), std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_EQ(f.dirty().size(), logged);
}

TEST(DeltaBalance, RoundCapThrowsLogicError) {
  // No input meeting the precondition reaches the cap (every round's new
  // leaves are finer than the ones they split), so the check is driven
  // directly: past the cap it must throw in release builds too.
  EXPECT_NO_THROW(detail::check_delta_round<3>(detail::delta_round_cap<3>));
  EXPECT_THROW(detail::check_delta_round<3>(detail::delta_round_cap<3> + 1),
               std::logic_error);
  EXPECT_THROW(detail::check_delta_round<1>(detail::delta_round_cap<1> + 1),
               std::logic_error);
}

TEST(DeltaBalance, CrossTreeRippleMatchesFullBalance) {
  // Refine a single octant deep in a corner touching three other trees of
  // the brick: the delta ripple must cross tree boundaries (including
  // purely diagonal adjacency) exactly like the full pipeline.
  const BalanceOptions opt = BalanceOptions::new_config();
  Forest<2> f(Connectivity<2>::brick({2, 2}), 4, 1);
  {
    SimComm warm(4);
    warm.set_record_rounds(false);
    balance(f, opt, warm);
  }
  f.clear_dirty();
  f.refine(
      [&](const TreeOct<2>& to) {
        if (to.tree != 0 || to.oct.level >= 5) return false;
        // Chase the corner that touches trees 1, 2 and 3.
        const coord_t h = side_len(to.oct);
        return to.oct.x[0] + h == root_len<2> &&
               to.oct.x[1] + h == root_len<2>;
      },
      true);
  ASSERT_FALSE(f.dirty().empty());
  Forest<2> ref = f;
  ref.clear_dirty();
  SimComm fc(4);
  fc.set_record_rounds(false);
  balance(ref, opt, fc);
  SimComm dc(4);
  dc.set_record_rounds(false);
  delta_balance(f, opt, dc);
  EXPECT_TRUE(forests_identical(f, ref));
}

TEST(DeltaBalance, RepartitionBetweenBatchAndBalanceIsSafe)
{
  // The dirty log is global: repartitioning between the churn batch and
  // the delta balance moves ownership but must not lose constraints.
  const BalanceOptions opt = BalanceOptions::new_config();
  ChurnFrontParams cp;
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 8, 1);
  front_refine(f, 4, cp, 0);
  f.partition_uniform();
  prebalance(f);
  front_refine(f, 5, cp, 1);
  f.partition_uniform();  // move ownership while the log is hot
  Forest<3> ref = f;
  ref.clear_dirty();
  SimComm fc(8);
  fc.set_record_rounds(false);
  balance(ref, opt, fc);
  SimComm dc(8);
  dc.set_record_rounds(false);
  delta_balance(f, opt, dc);
  EXPECT_TRUE(forests_identical(f, ref));
}

// ---------------------------------------------------------------------------
// Lifecycle: markers stay monotone under churn

TEST(Churn, MarkersStayMonotoneAcrossLifecycleSteps) {
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  RepartitionOptions ropt;
  ropt.mode = RepartitionMode::kWeighted;
  ropt.weight = RepartitionWeight::kInsulation;
  Forest<3> f(Connectivity<3>::brick({4, 4, 1}), 16, 1);
  front_refine(f, 5, cp, 0);
  f.partition_uniform();
  prebalance(f);
  for (int step = 1; step <= 6; ++step) {
    front_refine(f, 5, cp, step);
    SimComm dc(16);
    dc.set_record_rounds(false);
    delta_balance(f, BalanceOptions::new_config(), dc);
    SimComm pc(16);
    repartition(f, ropt, &pc);
    front_coarsen(f, cp, step, 3);
    const auto& marks = f.markers();
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      EXPECT_FALSE(marks[i + 1] < marks[i])
          << "marker " << i + 1 << " precedes marker " << i << " at step "
          << step;
    }
    EXPECT_TRUE(f.is_valid()) << "invalid forest at step " << step;
  }
}

}  // namespace
}  // namespace octbal
