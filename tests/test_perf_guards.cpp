/// \file test_perf_guards.cpp
/// \brief Perf-regression guards for the core-kernel perf pass — pinned to
/// machine-independent *counters*, never wall-clock.  Four layers:
///
///   1. Modeled traffic goldens: the optimization contract is that the
///      partition-window owner resolution and hash/sort tuning change how
///      fast answers are computed, never the answers — so the modeled
///      message/byte counts of the fixed Figure 15 workload are pinned
///      exactly (the same numbers live in BENCH_baseline.json, which CI
///      diffs against fresh bench runs), next to the response loop's
///      visited/decision/seed-call work counters.
///   2. Exact HashStats counts: the OctantHashSet sizing in
///      balance_subtree_new was tuned against the probe counters; pinning
///      them exactly means any change to sizing, hashing, or the ripple
///      working set shows up as a diff here first.
///   3. OwnerScanStats bounds: the phase-2/ghost owner resolution must
///      keep being served by the one-entry cache and bounded window scans
///      — per-lookup comparison budgets far below the O(log P) binary
///      search it replaced, and a capped full-search fallback rate.
///   4. Node numbering golden: counts and an FNV-1a hash of the node ids
///      and hanging flags on the balanced fig15 forest.
///
/// The workload is bench_fig15_weak's step-2 configuration (16 ranks,
/// fractal depth 6, six-octree brick): deterministic, ~2.4e5 balanced
/// octants, large enough that every fast path is exercised.

#include <gtest/gtest.h>

#include "core/key.hpp"
#include "core/sort.hpp"
#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "forest/nodes.hpp"
#include "obs/mem.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

Forest<3> fig15_step2_forest() {
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), 16, 2);
  fractal_refine(f, 6);
  f.partition_uniform();
  return f;
}

TEST(PerfGuards, ModeledTrafficMatchesBaseline) {
  // Pinned from the pre-optimization capture (BENCH_baseline.json): the
  // perf pass changed none of these.  octants_after equality between old
  // and new config doubles as an output-identity smoke check; the full
  // octant-level identity is covered by the differential tests.
  {
    Forest<3> f = fig15_step2_forest();
    SimComm comm(16);
    const BalanceReport rep = balance(f, BalanceOptions::old_config(), comm);
    EXPECT_EQ(rep.octants_after, 239672u);
    EXPECT_EQ(rep.comm.messages, 296u);
    EXPECT_EQ(rep.comm.bytes, 15810328u);
    EXPECT_EQ(rep.notify_comm.messages, 64u);
    EXPECT_EQ(rep.notify_comm.bytes, 15360u);
    EXPECT_EQ(rep.queries_sent, 34240u);
    EXPECT_EQ(rep.response_items, 421758u);
    // The old configuration answers with every raw octant: no decisions.
    EXPECT_EQ(rep.response_visited, 675246u);
    EXPECT_EQ(rep.response_decisions, 0u);
    EXPECT_EQ(rep.seed_calls, 0u);
  }
  {
    Forest<3> f = fig15_step2_forest();
    SimComm comm(16);
    const BalanceReport rep = balance(f, BalanceOptions::new_config(), comm);
    EXPECT_EQ(rep.octants_after, 239672u);
    EXPECT_EQ(rep.comm.messages, 250u);
    EXPECT_EQ(rep.comm.bytes, 811576u);
    EXPECT_EQ(rep.notify_comm.messages, 64u);
    EXPECT_EQ(rep.notify_comm.bytes, 2400u);
    EXPECT_EQ(rep.queries_sent, 34240u);
    EXPECT_EQ(rep.response_items, 3534u);
    // Response-loop work (DESIGN.md §2.18): one decision per sibling family
    // and query piece, one balance_seeds call per unbalanced family.  A
    // per-leaf loop makes 68832 seed calls here (one per unbalanced leaf
    // pair), 7.7x the family count.
    EXPECT_EQ(rep.response_visited, 675246u);
    EXPECT_EQ(rep.response_decisions, 28882u);
    EXPECT_EQ(rep.seed_calls, 8914u);
  }
}

TEST(PerfGuards, ExactHashStatsOnFixedWorkload) {
  Forest<3> f = fig15_step2_forest();
  SimComm comm(16);
  const BalanceReport rep = balance(f, BalanceOptions::new_config(), comm);
  // The sizing tuning (|S|*2+16 slots) halved probe traffic relative to
  // the |S|*1+16 seed sizing (134971 probes) at zero rehashes; these are
  // exact, machine-independent counts — a diff here means the hash set,
  // its sizing, or the ripple working set changed.
  EXPECT_EQ(rep.subtree.hash_queries, 1229246u);
  EXPECT_EQ(rep.subtree.hash_probes, 69136u);
  EXPECT_EQ(rep.subtree.hash_rehash_probes, 0u);
  EXPECT_EQ(rep.subtree.binary_searches, 35846u);
  EXPECT_EQ(rep.subtree.sorted_octants, 49522u);
}

TEST(PerfGuards, RadixDigitPassGoldens) {
  // The key radix sort's whole speed story is its pass schedule: one width
  // pass when levels are mixed, then only the normalized-Morton bytes that
  // actually vary.  Pinning the schedule on two fixed workloads means a
  // regression in the skip-degenerate-pass logic (or a key encoding change
  // that shifts where the live bits sit) fails tier-1 before it shows up
  // as wall-clock.
  {
    // Uniform-random octants at all levels: every pass is live.
    Rng rng(2012);
    std::vector<Octant<3>> a;
    const auto root = root_octant<3>();
    for (int i = 0; i < 100000; ++i) {
      a.push_back(random_octant(rng, root, max_level<3>));
    }
    auto keys = octants_to_keys(a);
    RadixStats st;
    sort_keys(keys, &st);
    EXPECT_EQ(st.level_passes, 1u);
    EXPECT_EQ(st.key_passes, 8u);
    EXPECT_EQ(st.skipped_passes, 0u);
    EXPECT_EQ(st.elements, 100000u);
  }
  {
    // Shallow fractal leaves (levels <= 6): the fine-grid bytes of the
    // normalized keys are constant zero and their passes must be skipped.
    Forest<3> f = fig15_step2_forest();
    std::vector<okey_t> keys;
    for (const auto& to : f.gather()) keys.push_back(key_of(to.oct));
    RadixStats st;
    sort_keys(keys, &st);
    EXPECT_EQ(st.elements, keys.size());
    EXPECT_EQ(st.level_passes, 1u);
    EXPECT_EQ(st.key_passes, 4u);
    EXPECT_EQ(st.skipped_passes, 4u);
  }
}

TEST(PerfGuards, OwnerResolutionStaysWindowed) {
  Forest<3> f = fig15_step2_forest();
  SimComm comm(16);
  const BalanceReport rep = balance(f, BalanceOptions::new_config(), comm);
  const OwnerScanStats& os = rep.owner_scan;
  ASSERT_GT(os.lookups, 0u);
  EXPECT_EQ(os.lookups, os.cache_hits + os.window_scans + os.full_searches);
  // The one-entry last-hit cache must keep serving the overwhelming
  // majority (measured: 95.5%), with the O(log P) fallback capped at 5%
  // (measured: 3.3%).
  EXPECT_GE(os.cache_hits * 10, os.lookups * 9);
  EXPECT_LE(os.full_searches * 20, os.lookups);
  // Comparison budget: <= 3 partition-marker comparisons per lookup
  // (measured: 2.86), versus ~2*log2(P) ~ 8 for the per-offset binary
  // search this replaced.  Wall-clock never enters the assertion.
  EXPECT_LE(os.comparisons, 3 * os.lookups);
}

TEST(PerfGuards, GhostOwnerResolutionStaysWindowed) {
  Forest<3> f = fig15_step2_forest();
  {
    SimComm comm(16);
    balance(f, BalanceOptions::new_config(), comm);
  }
  SimComm comm(16);
  const GhostLayer<3> gl = build_ghost_layer(f, 3, comm);
  std::size_t entries = 0;
  for (const auto& v : gl.per_rank) entries += v.size();
  // Modeled ghost traffic on the balanced forest, pinned exactly.
  EXPECT_EQ(entries, 40800u);
  EXPECT_EQ(gl.traffic.messages, 154u);
  EXPECT_EQ(gl.traffic.bytes, 816000u);
  const OwnerScanStats& os = gl.owner_scan;
  ASSERT_GT(os.lookups, 0u);
  EXPECT_EQ(os.lookups, os.cache_hits + os.window_scans + os.full_searches);
  // The ghost candidate walk hops across rank boundaries far more often
  // than the query walk (it *targets* the boundary), so its budgets are
  // looser but still well below the binary-search baseline: >= 70% cache
  // hits (measured 77.8%) and <= 5 comparisons per lookup (measured 4.0).
  EXPECT_GE(os.cache_hits * 10, os.lookups * 7);
  EXPECT_LE(os.comparisons, 5 * os.lookups);
}

/// FNV-1a 64 over the little-endian bytes of \p v, chained from \p h.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(PerfGuards, NodeNumberingPinned) {
  // Node ids in order of first appearance, hanging flags and the
  // independent count on the balanced fig15 forest, pinned so that any
  // change to the enumeration (hashing, numbering, distribution) must
  // keep the ids stable.  The counts are exact; the hash chains every
  // element's 8 corner ids, then every node's flag.
  Forest<3> f = fig15_step2_forest();
  {
    SimComm comm(16);
    balance(f, BalanceOptions::new_config(), comm);
  }
  const NodeNumbering nn = enumerate_nodes(f.gather(), f.connectivity());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& en : nn.element_nodes) {
    for (const std::int64_t id : en) {
      h = fnv1a(h, static_cast<std::uint64_t>(id), 8);
    }
  }
  for (const std::uint8_t flag : nn.hanging) h = fnv1a(h, flag, 1);
  EXPECT_EQ(nn.element_nodes.size(), 239672u);
  EXPECT_EQ(nn.num_nodes, 392761u);
  EXPECT_EQ(nn.num_independent, 148425u);
  EXPECT_EQ(h, 1862774508384429827ull);
}

std::uint64_t tag_total(const obs::MemSnapshot& m, obs::MemTag tag) {
  for (const auto& t : m.tags) {
    if (t.tag == tag) return t.total;
  }
  return 0;
}

TEST(PerfGuards, MemoryPeaksPinnedPerLayout) {
  // The memory accountant tracks logical capacity transitions, so every
  // figure below is a pure function of the workload and of the record
  // types the kernels size (KeyRec sort scratch, packed-key hash slots and
  // subtree working sets) — pinned exactly, like the traffic goldens (the
  // same numbers live in BENCH_baseline.json's fig15 memory sections).
  obs::MemSession mem(16);
  Forest<3> f = fig15_step2_forest();
  SimComm comm(16);
  balance(f, BalanceOptions::new_config(), comm);
  const obs::MemSnapshot m = mem.snapshot();
  EXPECT_EQ(m.peak_bytes, 10971968u);
  EXPECT_EQ(tag_total(m, obs::MemTag::kHashSlots), 4718592u);
  EXPECT_EQ(tag_total(m, obs::MemTag::kForestLeaves), 4793440u);
  EXPECT_EQ(tag_total(m, obs::MemTag::kBalanceStaging), 1496824u);
  EXPECT_EQ(tag_total(m, obs::MemTag::kCommMailbox), 1026640u);
}

}  // namespace
}  // namespace octbal
