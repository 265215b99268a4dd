/// \file test_mem.cpp
/// \brief The memory accountant's contract: scopes attribute bytes to the
/// right slot and tag, high-water marks survive releases, phases fold with
/// live bytes on the next phase's floor, sessions stack, stale releases
/// are dropped, unmatched releases saturate instead of underflowing, the
/// full pipeline's memory section is byte-identical across thread counts
/// and delivery scrambles, delta_balance keeps its scratch out of the
/// caller's phase, and the hooks cost (almost) nothing when no session is
/// installed.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "forest/balance.hpp"
#include "forest/delta_balance.hpp"
#include "forest/forest.hpp"
#include "obs/mem.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

using obs::MemScope;
using obs::MemSession;
using obs::MemSnapshot;
using obs::MemTag;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

const MemSnapshot::TagPeaks* find_tag(const MemSnapshot& s, MemTag tag) {
  for (const auto& t : s.tags) {
    if (t.tag == tag) return &t;
  }
  return nullptr;
}

const MemSnapshot::PhasePeak* find_phase(const MemSnapshot& s,
                                         const std::string& name) {
  for (const auto& p : s.phases) {
    if (p.phase == name) return &p;
  }
  return nullptr;
}

// --------------------------------------------------- scopes + attribution --

TEST(Mem, ScopesAttributeToExplicitSlots) {
  MemSession mem(4);
  {
    MemScope a(0, MemTag::kSortScratch, 100);
    MemScope b(2, MemTag::kSortScratch, 50);
    MemScope c(obs::kMemEngineSlot, MemTag::kDirtyLog, 7);
    MemScope d(MemTag::kLinearize, 30);  // unbound thread -> engine slot
    const MemSnapshot s = mem.snapshot();
    EXPECT_EQ(s.nranks, 4);
    EXPECT_FALSE(s.empty());
    const auto* sort = find_tag(s, MemTag::kSortScratch);
    ASSERT_NE(sort, nullptr);
    ASSERT_EQ(sort->per_rank.size(), 4u);
    EXPECT_EQ(sort->per_rank[0], 100u);
    EXPECT_EQ(sort->per_rank[1], 0u);
    EXPECT_EQ(sort->per_rank[2], 50u);
    EXPECT_EQ(sort->engine, 0u);
    EXPECT_EQ(sort->total, 150u);
    const auto* dirty = find_tag(s, MemTag::kDirtyLog);
    ASSERT_NE(dirty, nullptr);
    EXPECT_EQ(dirty->engine, 7u);
    const auto* lin = find_tag(s, MemTag::kLinearize);
    ASSERT_NE(lin, nullptr);
    EXPECT_EQ(lin->engine, 30u);
    // Tags nobody charged do not appear.
    EXPECT_EQ(find_tag(s, MemTag::kGhost), nullptr);
  }
  // Scope destruction releases live bytes but never lowers a peak.
  const MemSnapshot after = mem.snapshot();
  const auto* sort = find_tag(after, MemTag::kSortScratch);
  ASSERT_NE(sort, nullptr);
  EXPECT_EQ(sort->total, 150u);
}

TEST(Mem, MemRankBindsTheCallingThread) {
  MemSession mem(3);
  {
    obs::MemRank bind(1);
    MemScope a(MemTag::kSeeds, 64);
    {
      obs::MemRank inner(2);  // bindings nest ...
      MemScope b(MemTag::kSeeds, 8);
    }
    MemScope c(MemTag::kSeeds, 1);  // ... and restore
    const MemSnapshot s = mem.snapshot();
    const auto* seeds = find_tag(s, MemTag::kSeeds);
    ASSERT_NE(seeds, nullptr);
    EXPECT_EQ(seeds->per_rank[1], 65u);
    EXPECT_EQ(seeds->per_rank[2], 8u);
    EXPECT_EQ(seeds->engine, 0u);
  }
}

// ------------------------------------------------------ high-water marks --

TEST(Mem, SetRechargesAndPeaksPersist) {
  MemSession mem(1);
  MemScope a(0, MemTag::kHashSlots, 1000);
  a.set_slot(0, MemTag::kHashSlots, 10);  // shrink: live drops, peak stays
  {
    const MemSnapshot s = mem.snapshot();
    const auto* hash = find_tag(s, MemTag::kHashSlots);
    ASSERT_NE(hash, nullptr);
    EXPECT_EQ(hash->per_rank[0], 1000u);
    EXPECT_EQ(s.peak_bytes, 1000u);
  }
  a.set_slot(0, MemTag::kHashSlots, 2000);  // grow past the old peak
  {
    const MemSnapshot s = mem.snapshot();
    EXPECT_EQ(find_tag(s, MemTag::kHashSlots)->per_rank[0], 2000u);
    EXPECT_EQ(s.peak_bytes, 2000u);
  }
}

TEST(Mem, PeakIsPerSlotSum) {
  // peak_bytes sums each slot's own high-water mark (the deterministic
  // upper bound), not the max of the cross-slot live sum over time.
  MemSession mem(2);
  { MemScope a(0, MemTag::kOther, 100); }  // slot 0 peaked alone ...
  { MemScope b(1, MemTag::kOther, 60); }   // ... then slot 1
  const MemSnapshot s = mem.snapshot();
  EXPECT_EQ(s.peak_bytes, 160u);  // 100 + 60, though never live together
}

TEST(Mem, CopyRechargesMoveTransfers) {
  MemSession mem(1);
  MemScope a(0, MemTag::kGhost, 40);
  MemScope b = a;  // copy: a second 40-byte charge
  {
    const MemSnapshot s = mem.snapshot();
    EXPECT_EQ(find_tag(s, MemTag::kGhost)->per_rank[0], 80u);
  }
  MemScope c = std::move(a);  // move: no new charge
  {
    const MemSnapshot s = mem.snapshot();
    EXPECT_EQ(find_tag(s, MemTag::kGhost)->per_rank[0], 80u);
    EXPECT_EQ(c.bytes(), 40u);
    EXPECT_EQ(a.bytes(), 0u);  // NOLINT(bugprone-use-after-move): spec'd
  }
}

TEST(Mem, UnmatchedReleaseSaturates) {
  MemSession mem(1);
  obs::mem_release(0, MemTag::kOther, 999);  // nothing live: clamps at 0
  obs::mem_charge(0, MemTag::kOther, 5);
  const MemSnapshot s = mem.snapshot();
  const auto* other = find_tag(s, MemTag::kOther);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->per_rank[0], 5u);  // no underflow into 2^64 territory
  EXPECT_EQ(s.peak_bytes, 5u);
}

// ---------------------------------------------------------------- phases --

TEST(Mem, PhasesFoldWithLiveBytesOnTheNextFloor) {
  MemSession mem(1);
  MemScope persistent(0, MemTag::kForestLeaves, 500);
  { MemScope transient(0, MemTag::kSortScratch, 300); }
  mem.set_phase("second");
  // "second" starts from the 500 still live, not from zero; its own
  // transient raises it to 600, well below the first phase's 800.
  { MemScope transient(0, MemTag::kLinearize, 100); }
  const MemSnapshot s = mem.snapshot();
  const auto* run = find_phase(s, "run");
  const auto* second = find_phase(s, "second");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(run->per_rank[0], 800u);
  EXPECT_EQ(second->per_rank[0], 600u);
  // Snapshotting folded the open phase without closing it: a later charge
  // still lands in "second".
  { MemScope again(0, MemTag::kLinearize, 400); }
  EXPECT_EQ(find_phase(mem.snapshot(), "second")->per_rank[0], 900u);
}

TEST(Mem, RepeatedPhaseLabelsMaxMerge) {
  MemSession mem(1);
  { MemScope a(0, MemTag::kOther, 100); }
  mem.set_phase("work");
  { MemScope b(0, MemTag::kOther, 70); }
  mem.set_phase("run");  // back to the first label
  mem.set_phase("work");
  { MemScope c(0, MemTag::kOther, 20); }
  const MemSnapshot s = mem.snapshot();
  ASSERT_EQ(s.phases.size(), 2u);  // labels dedupe in first-entry order
  EXPECT_EQ(s.phases[0].phase, "run");
  EXPECT_EQ(s.phases[1].phase, "work");
  EXPECT_EQ(s.phases[0].per_rank[0], 100u);
  EXPECT_EQ(s.phases[1].per_rank[0], 70u);  // max(70, 20)
}

// -------------------------------------------------------------- sessions --

TEST(Mem, SessionsStackAndRestore) {
  MemSession outer(2);
  obs::mem_charge(0, MemTag::kOther, 10);
  {
    MemSession inner(3);
    obs::mem_charge(0, MemTag::kOther, 7);
    const MemSnapshot s = inner.snapshot();
    EXPECT_EQ(s.nranks, 3);
    EXPECT_EQ(find_tag(s, MemTag::kOther)->per_rank[0], 7u);
  }
  obs::mem_charge(1, MemTag::kOther, 1);  // lands in the restored outer
  const MemSnapshot s = outer.snapshot();
  const auto* other = find_tag(s, MemTag::kOther);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->per_rank[0], 10u);
  EXPECT_EQ(other->per_rank[1], 1u);
}

TEST(Mem, StaleScopeReleaseIsDropped) {
  MemSession outer(1);
  MemScope survivor;
  {
    MemSession inner(1);
    survivor.set_slot(0, MemTag::kOther, 123);  // charged against inner
  }
  obs::mem_charge(0, MemTag::kOther, 5);
  survivor.reset();  // inner is gone: must not touch outer's ledger
  const MemSnapshot s = outer.snapshot();
  const auto* other = find_tag(s, MemTag::kOther);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->per_rank[0], 5u);
}

TEST(Mem, ScopeCreatedBeforeSessionChargesNothing) {
  MemScope early(0, MemTag::kOther, 77);  // no session installed
  MemSession mem(1);
  const MemSnapshot before = mem.snapshot();
  EXPECT_EQ(find_tag(before, MemTag::kOther), nullptr);
  // ... but a *copy* made under the session re-charges the recorded bytes.
  MemScope copy = early;
  const MemSnapshot after = mem.snapshot();
  const auto* other = find_tag(after, MemTag::kOther);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->per_rank[0], 77u);
}

// ----------------------------------------------- pipeline determinism --

/// One fully accounted balance run: forest construction, refinement,
/// partitioning, and the one-pass balance, all inside a MemSession whose
/// canonical serialization is the comparison key.
std::string accounted_run(int threads, bool scramble) {
  par::set_num_threads(threads);
  constexpr int kRanks = 6;
  MemSession mem(kRanks);
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), kRanks, 1);
  fractal_refine(f, 4);
  f.partition_uniform();
  SimComm comm(kRanks);
  if (scramble) comm.set_scramble(42);
  balance(f, BalanceOptions::new_config(), comm);
  return mem.snapshot().serialize();
}

TEST(Mem, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::string ref = accounted_run(1, false);
  EXPECT_NE(ref.find("mem nranks=6"), std::string::npos) << ref;
  // The instrumented subsystems must actually show up.
  for (const char* tag : {"forest_leaves", "hash_slots", "balance_staging",
                          "dirty_log", "linearize"}) {
    EXPECT_NE(ref.find(tag), std::string::npos) << tag << "\n" << ref;
  }
  EXPECT_NE(ref.find("phase balance/local"), std::string::npos) << ref;
  EXPECT_NE(ref.find("phase balance/rebalance"), std::string::npos) << ref;
  for (int threads : {4, 8}) {
    EXPECT_EQ(accounted_run(threads, false), ref) << "threads=" << threads;
  }
}

TEST(Mem, ScrambledDeliveryDoesNotChangeAccounting) {
  ThreadGuard guard;
  const std::string ref = accounted_run(1, false);
  EXPECT_EQ(accounted_run(1, true), ref);
  EXPECT_EQ(accounted_run(4, true), ref);
}

TEST(Mem, DeltaScratchStaysOutOfTheCallersPhase) {
  // delta_balance opens its own phase before the dirty-log buckets, so the
  // phase the caller left open sees none of that scratch: per slot, its peak is what was live when the pass
  // started or what is live when it returns.
  ChurnFrontParams cp;
  cp.drift = 0.03;
  cp.wake = 0.06;
  constexpr int kRanks = 8;
  Forest<3> f(Connectivity<3>::brick({4, 4, 1}), kRanks, 1);
  front_refine(f, 5, cp, 0);
  f.partition_uniform();
  {
    SimComm warm(kRanks);
    warm.set_record_rounds(false);
    balance(f, BalanceOptions::new_config(), warm);
  }
  f.clear_dirty();
  front_refine(f, 5, cp, 1);
  MemSession mem(kRanks);
  f.account_memory();
  SimComm comm(kRanks);
  comm.set_record_rounds(false);
  comm.set_phase("caller");
  const MemSnapshot entry = mem.snapshot();
  const DeltaBalanceReport rep =
      delta_balance(f, BalanceOptions::new_config(), comm);
  ASSERT_GT(rep.region_octants, 0u);
  ASSERT_EQ(comm.phase(), "caller");
  mem.set_phase("after");  // folds the caller's phase, opens on what is live
  const MemSnapshot exit = mem.snapshot();
  const auto* at_entry = find_phase(entry, "caller");
  const auto* caller = find_phase(exit, "caller");
  const auto* after = find_phase(exit, "after");
  ASSERT_NE(at_entry, nullptr);
  ASSERT_NE(caller, nullptr);
  ASSERT_NE(after, nullptr);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(caller->per_rank[r],
              std::max(at_entry->per_rank[r], after->per_rank[r]))
        << "rank " << r;
  }
  EXPECT_EQ(caller->engine, std::max(at_entry->engine, after->engine));
  // The scratch was charged, to the pass's own phase.
  ASSERT_NE(find_tag(exit, MemTag::kDirtyLog), nullptr);
  ASSERT_NE(find_phase(exit, "churn/local"), nullptr);
}

// ------------------------------------------------------------- overhead --

TEST(Mem, DisabledOverheadIsTiny) {
  ASSERT_FALSE(obs::mem_enabled());
  constexpr int kIters = 200000;
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    obs::mem_charge(0, MemTag::kOther, 64);
    obs::mem_release(0, MemTag::kOther, 64);
    MemScope s(MemTag::kOther, 64);
  }
  // With no session installed each hook is one relaxed load and a branch;
  // 200k iterations take microseconds.  The bound is absurdly generous to
  // stay robust on a loaded CI box — it guards against accidentally
  // adding a lock or an allocation to the disabled path.
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace octbal
