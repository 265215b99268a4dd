/// \file test_repartition.cpp
/// \brief Property battery for the weighted repartitioner
/// (forest/repartition.hpp): marker monotonicity, weighted equalization,
/// idempotence, no-op edge cases, exact migration accounting, apply_cuts
/// input checks, the stale-marker fault channel, and byte-identical
/// results across thread counts (the tsan label runs this file under the
/// threaded rank engine), and the differential battery against the
/// gather-based reference in repartition_reference.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "forest/repartition.hpp"
#include "repartition_reference.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

/// Restore the ambient thread count when a test exits, even on failure.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Small fractal mesh (same family as the bench's fig15 workload, two
/// depths shallower, so the whole battery stays fast) — balanced once so
/// repartition calls operate on a fixed mesh.
Forest<3> small_fractal(int ranks, int depth = 4) {
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), ranks, 2);
  fractal_refine(f, depth);
  f.partition_uniform();
  return f;
}

/// Balance with a fresh throwaway communicator (fixes the mesh).
void prebalance(Forest<3>& f) {
  SimComm warm(f.num_ranks());
  warm.set_record_rounds(false);
  balance(f, BalanceOptions::new_config(), warm);
}

/// Balance once on \p comm, so the repartition call that follows runs on a
/// communicator that already carries a balance step's traffic.
void measure(Forest<3>& f, SimComm& comm) {
  comm.set_record_rounds(false);
  balance(f, BalanceOptions::new_config(), comm);
}

std::vector<std::size_t> cuts_of(const Forest<3>& f) {
  std::vector<std::size_t> cuts(static_cast<std::size_t>(f.num_ranks()) + 1,
                                0);
  for (int r = 0; r < f.num_ranks(); ++r) {
    cuts[r + 1] = cuts[r] + f.local(r).size();
  }
  return cuts;
}

/// Every interior cut moved 7 SFC positions up the curve (clamped to its
/// successor).
std::vector<std::size_t> shifted_cuts(const Forest<3>& f) {
  std::vector<std::size_t> cuts = cuts_of(f);
  for (std::size_t b = 1; b + 1 < cuts.size(); ++b) {
    cuts[b] = std::min(cuts[b] + 7, cuts[b + 1]);
  }
  return cuts;
}

/// The fractal mesh is symmetric enough that its uniform split is already
/// weight-balanced under both weight kinds, so a re-split of it moves
/// nothing.  Tests that need migration start from shifted cuts instead.
void skew(Forest<3>& f) { apply_cuts(f, shifted_cuts(f), nullptr); }

void expect_markers_monotone(const Forest<3>& f, const char* ctx) {
  const auto& m = f.markers();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(f.num_ranks()) + 1) << ctx;
  for (std::size_t i = 0; i + 1 < m.size(); ++i) {
    EXPECT_FALSE(m[i + 1] < m[i]) << ctx << ": marker " << i + 1
                                  << " precedes marker " << i;
  }
}

TEST(Repartition, MarkersStayMonotoneInEveryMode) {
  for (const RepartitionWeight w :
       {RepartitionWeight::kOctants, RepartitionWeight::kInsulation}) {
    Forest<3> f = small_fractal(8);
    prebalance(f);
    skew(f);
    SimComm comm(8);
    measure(f, comm);
    RepartitionOptions opt;
    opt.weight = w;
    ASSERT_GT(repartition(f, opt, &comm).octants_moved, 0u);
    const char* ctx =
        w == RepartitionWeight::kOctants ? "kOctants" : "kInsulation";
    expect_markers_monotone(f, ctx);
    EXPECT_TRUE(f.is_valid()) << ctx;
  }
}

TEST(Repartition, WeightedEqualizesWithinOneMaxWeightOctant) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  for (const RepartitionWeight w :
       {RepartitionWeight::kOctants, RepartitionWeight::kInsulation}) {
    RepartitionOptions opt;
    opt.weight = w;
    const RepartitionReport rep = repartition(f, opt, nullptr);
    ASSERT_EQ(rep.weight_per_rank.size(), 8u);
    ASSERT_GT(rep.total_weight, 0u);
    // The prefix-sum cut rule's guarantee: no rank exceeds the ideal
    // share by more than one maximum-weight octant.
    const std::uint64_t bound =
        rep.total_weight / 8 + rep.max_octant_weight;
    for (int r = 0; r < 8; ++r) {
      EXPECT_LE(rep.weight_per_rank[r], bound)
          << "rank " << r << " under weight mode "
          << static_cast<int>(w);
    }
  }
}

TEST(Repartition, WeightedIsIdempotent) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  RepartitionOptions opt;
  opt.weight = RepartitionWeight::kInsulation;
  repartition(f, opt, nullptr);
  // Same mesh, same weights, same rule: the second call must find the
  // cuts already in place.
  const RepartitionReport again = repartition(f, opt, nullptr);
  EXPECT_EQ(again.octants_moved, 0u);
  EXPECT_EQ(again.max_marker_shift, 0u);
  EXPECT_FALSE(again.changed());
}

TEST(Repartition, SingleRankIsNoOp) {
  for (const RepartitionWeight w :
       {RepartitionWeight::kOctants, RepartitionWeight::kInsulation}) {
    Forest<3> f = small_fractal(1);
    prebalance(f);
    const std::uint64_t sum = forest_checksum(f);
    SimComm comm(1);
    measure(f, comm);
    RepartitionOptions opt;
    opt.weight = w;
    const RepartitionReport rep = repartition(f, opt, &comm);
    EXPECT_EQ(rep.octants_moved, 0u);
    EXPECT_EQ(rep.migration.bytes, 0u);
    EXPECT_EQ(forest_checksum(f), sum);
    EXPECT_TRUE(f.is_valid());
  }
}

TEST(Repartition, PreservesContentAndBalanceVerdict) {
  for (const RepartitionWeight w :
       {RepartitionWeight::kOctants, RepartitionWeight::kInsulation}) {
    Forest<3> f = small_fractal(8);
    prebalance(f);
    skew(f);
    const std::uint64_t sum = forest_checksum(f);
    const std::uint64_t count = f.global_num_octants();
    ASSERT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));
    SimComm comm(8);
    measure(f, comm);
    RepartitionOptions opt;
    opt.weight = w;
    ASSERT_GT(repartition(f, opt, &comm).octants_moved, 0u);
    EXPECT_EQ(forest_checksum(f), sum);
    EXPECT_EQ(f.global_num_octants(), count);
    EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 3));
    EXPECT_TRUE(f.is_valid());
  }
}

TEST(Repartition, MigrationAccountingIsExact) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  skew(f);
  SimComm comm(8);
  measure(f, comm);
  const std::vector<std::size_t> cuts_before = cuts_of(f);
  const CommStats before = comm.stats();
  const RepartitionReport rep = repartition(f, RepartitionOptions{}, &comm);
  ASSERT_GT(rep.octants_moved, 0u);
  // The reported marker shift is the widest real cut move.
  const std::vector<std::size_t> cuts_after = cuts_of(f);
  std::uint64_t widest = 0;
  for (std::size_t b = 0; b < cuts_before.size(); ++b) {
    const std::size_t a = cuts_before[b], c = cuts_after[b];
    widest = std::max<std::uint64_t>(widest, a > c ? a - c : c - a);
  }
  EXPECT_EQ(rep.max_marker_shift, widest);
  // Every moved octant is shipped exactly once at its struct size, one
  // message per communicating (old owner, new owner) pair.
  EXPECT_EQ(rep.migration.bytes, rep.octants_moved * sizeof(TreeOct<3>));
  EXPECT_LE(rep.migration.messages, 8u * 7u);
  EXPECT_GT(rep.migration.messages, 0u);
  // ... and the communicator was charged the same traffic.
  const CommStats after = comm.stats();
  EXPECT_EQ(after.bytes - before.bytes, rep.migration.bytes);
  EXPECT_EQ(after.messages - before.messages, rep.migration.messages);
  // The charge landed under its own "partition" phase bracket.
  bool found = false;
  for (const auto& ph : comm.critical_path()) {
    if (ph.name == "partition") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Repartition, ApplyCutsRoundTripRestoresPartition) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  const std::vector<std::size_t> home = cuts_of(f);
  const std::uint64_t sum = forest_checksum(f);
  const std::vector<std::size_t> shifted = shifted_cuts(f);
  SimComm comm(8);
  const RepartitionReport out = apply_cuts(f, shifted, &comm);
  EXPECT_EQ(cuts_of(f), shifted);
  const RepartitionReport back = apply_cuts(f, home, &comm);
  EXPECT_EQ(cuts_of(f), home);
  EXPECT_EQ(forest_checksum(f), sum);
  EXPECT_TRUE(f.is_valid());
  // Moving back undoes exactly what moving out did — and the revert is
  // charged like any other migration (real traffic).
  EXPECT_EQ(out.octants_moved, back.octants_moved);
  EXPECT_EQ(out.migration.bytes, back.migration.bytes);
}

/// apply_cuts must reject a malformed cut vector before it touches the
/// forest: the partition and content stay exactly as they were.
void expect_apply_cuts_rejects(const std::vector<std::size_t>& cuts,
                               const char* ctx) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  const std::vector<std::size_t> home = cuts_of(f);
  const std::uint64_t sum = forest_checksum(f);
  SimComm comm(8);
  EXPECT_THROW(apply_cuts(f, cuts, &comm), std::invalid_argument) << ctx;
  EXPECT_EQ(cuts_of(f), home) << ctx;
  EXPECT_EQ(forest_checksum(f), sum) << ctx;
  EXPECT_EQ(comm.stats().messages, 0u) << ctx;
  EXPECT_TRUE(f.is_valid()) << ctx;
}

std::vector<std::size_t> home_cuts() {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  return cuts_of(f);
}

TEST(Repartition, ApplyCutsThrowsOnWrongCutCount) {
  std::vector<std::size_t> cuts = home_cuts();
  cuts.pop_back();
  expect_apply_cuts_rejects(cuts, "P cuts");
  cuts = home_cuts();
  cuts.push_back(cuts.back());
  expect_apply_cuts_rejects(cuts, "P + 2 cuts");
  expect_apply_cuts_rejects({}, "no cuts");
}

TEST(Repartition, ApplyCutsThrowsOnWrongEndpoints) {
  std::vector<std::size_t> cuts = home_cuts();
  cuts.front() = 1;
  expect_apply_cuts_rejects(cuts, "cuts[0] != 0");
  cuts = home_cuts();
  cuts.back() -= 1;
  expect_apply_cuts_rejects(cuts, "cuts[P] short of the octant count");
  cuts = home_cuts();
  cuts.back() += 1;
  expect_apply_cuts_rejects(cuts, "cuts[P] past the octant count");
}

TEST(Repartition, ApplyCutsThrowsOnNonMonotoneCuts) {
  std::vector<std::size_t> cuts = home_cuts();
  std::swap(cuts[3], cuts[4]);
  ASSERT_GT(cuts[3], cuts[4]);
  expect_apply_cuts_rejects(cuts, "cuts[3] > cuts[4]");
}

TEST(Repartition, StaleMarkerNudgeFaultIsObservable) {
  // The kStaleMarkers injection (the test keeps the channel's former
  // name) migrates the data but skips the marker rebuild; Forest::is_valid
  // must notice the stale index (this is the defect the audit battery's
  // repartition/preserves_content invariant exists to catch — its fuzz
  // round trip lives in test_audit).
  Forest<3> f = small_fractal(8);
  prebalance(f);
  skew(f);
  SimComm comm(8);
  measure(f, comm);
  RepartitionOptions opt;
  opt.inject = FaultInjection::kStaleMarkers;
  const RepartitionReport rep = repartition(f, opt, &comm);
  ASSERT_GT(rep.octants_moved, 0u)
      << "fault test needs a re-split that moves octants";
  EXPECT_FALSE(f.is_valid());
  // The same call without the fault leaves a valid forest (control).
  Forest<3> g = small_fractal(8);
  prebalance(g);
  skew(g);
  SimComm comm2(8);
  measure(g, comm2);
  opt.inject = FaultInjection::kNone;
  repartition(g, opt, &comm2);
  EXPECT_TRUE(g.is_valid());
}

TEST(Repartition, ResultIsByteIdenticalAcrossThreadCounts) {
  // Two balance→repartition rounds per thread count: the final octant
  // arrays, the migration counters and the marker array must be
  // byte-identical whatever the engine's thread count — the repartition
  // pass makes ordering decisions only from barrier-normalized state.
  ThreadGuard guard;
  struct Outcome {
    std::vector<TreeOct<3>> octants;
    std::vector<std::size_t> cuts;
    std::uint64_t moved = 0;
    std::uint64_t bytes = 0;
    std::uint64_t shift = 0;
  };
  const auto run = [&](int threads) {
    par::set_num_threads(threads);
    Forest<3> f = small_fractal(8);
    prebalance(f);
    skew(f);
    Outcome o;
    for (int round = 0; round < 2; ++round) {
      SimComm comm(8);
      measure(f, comm);
      const RepartitionReport rep =
          repartition(f, RepartitionOptions{}, &comm);
      o.moved += rep.octants_moved;
      o.bytes += rep.migration.bytes;
      o.shift = std::max(o.shift, rep.max_marker_shift);
    }
    o.octants = f.gather();
    o.cuts = cuts_of(f);
    return o;
  };
  const Outcome base = run(1);
  ASSERT_GT(base.moved, 0u);
  for (const int threads : {4, 8}) {
    const Outcome o = run(threads);
    EXPECT_EQ(o.octants, base.octants) << threads << " threads";
    EXPECT_EQ(o.cuts, base.cuts) << threads << " threads";
    EXPECT_EQ(o.moved, base.moved) << threads << " threads";
    EXPECT_EQ(o.bytes, base.bytes) << threads << " threads";
    EXPECT_EQ(o.shift, base.shift) << threads << " threads";
  }
}

// ------------------------------------------- differential vs. reference --
// The per-rank kernel against the gather-based reference: random bricks in
// 1D/2D/3D, skewed partitions with empty ranks, more ranks than leaves,
// every weight kind, the stale-marker fault, and 1/4/8 threads.  Leaves,
// markers, reports, traffic, modeled time and flight digests must all be
// identical.

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <int D>
std::uint64_t octant_hash(std::uint64_t seed, const TreeOct<D>& to) {
  std::uint64_t h = mix64(seed ^ static_cast<std::uint64_t>(to.tree));
  for (int i = 0; i < D; ++i) {
    h = mix64(h ^ static_cast<std::uint64_t>(to.oct.x[i]));
  }
  return mix64(h ^ static_cast<std::uint64_t>(to.oct.level));
}

/// A random brick, refined by a seeded hash to a random depth (0 keeps one
/// leaf per tree, so some draws have more ranks than leaves), then split
/// at random monotone cuts: repeated cuts leave ranks empty.
template <int D>
Forest<D> random_forest(std::uint64_t seed, int ranks) {
  Rng rng(seed);
  std::array<int, D> dims{};
  for (auto& d : dims) d = 1 + static_cast<int>(rng.below(3));
  Forest<D> f(Connectivity<D>::brick(dims), ranks, 0);
  const int depth = static_cast<int>(rng.below(D == 3 ? 4 : D == 2 ? 6 : 9));
  f.refine(
      [&](const TreeOct<D>& to) {
        return to.oct.level < depth && octant_hash(seed, to) % 8 < 3;
      },
      true);
  const std::size_t n = f.global_num_octants();
  std::vector<std::size_t> cuts{0};
  for (int r = 1; r < ranks; ++r) cuts.push_back(rng.below(n + 1));
  cuts.push_back(n);
  std::sort(cuts.begin(), cuts.end());
  apply_cuts(f, cuts, nullptr);
  return f;
}

template <int D>
void expect_same_forest(const Forest<D>& got, const Forest<D>& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.num_ranks(), want.num_ranks()) << ctx;
  for (int r = 0; r < got.num_ranks(); ++r) {
    EXPECT_EQ(got.local(r), want.local(r)) << ctx << ", rank " << r;
  }
  EXPECT_EQ(got.markers(), want.markers()) << ctx;
}

void expect_same_report(const RepartitionReport& got,
                        const RepartitionReport& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.octants_moved, want.octants_moved) << ctx;
  EXPECT_EQ(got.migration.messages, want.migration.messages) << ctx;
  EXPECT_EQ(got.migration.bytes, want.migration.bytes) << ctx;
  EXPECT_EQ(got.max_marker_shift, want.max_marker_shift) << ctx;
  EXPECT_EQ(got.total_weight, want.total_weight) << ctx;
  EXPECT_EQ(got.max_octant_weight, want.max_octant_weight) << ctx;
  EXPECT_EQ(got.weight_per_rank, want.weight_per_rank) << ctx;
}

void expect_same_traffic(const SimComm& got, const SimComm& want,
                         const std::string& ctx) {
  EXPECT_EQ(got.stats().messages, want.stats().messages) << ctx;
  EXPECT_EQ(got.stats().bytes, want.stats().bytes) << ctx;
  EXPECT_EQ(got.modeled_time(), want.modeled_time()) << ctx;
  const auto& a = got.rounds();
  const auto& b = want.rounds();
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].phase, b[i].phase) << ctx << ", round " << i;
    EXPECT_EQ(a[i].total.messages, b[i].total.messages)
        << ctx << ", round " << i;
    EXPECT_EQ(a[i].total.bytes, b[i].total.bytes) << ctx << ", round " << i;
    EXPECT_EQ(a[i].digest, b[i].digest) << ctx << ", round " << i;
    EXPECT_EQ(a[i].edges.size(), b[i].edges.size()) << ctx << ", round " << i;
  }
  const auto pa = got.critical_path();
  const auto pb = want.critical_path();
  ASSERT_EQ(pa.size(), pb.size()) << ctx;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name) << ctx;
    EXPECT_EQ(pa[i].rounds, pb[i].rounds) << ctx;
    EXPECT_EQ(pa[i].time, pb[i].time) << ctx;
  }
}

/// Rank counts per case: small, more than the usual leaf count of a
/// shallow draw, and one.
constexpr int kDiffRanks[] = {1, 3, 8, 40};
constexpr std::uint64_t kDiffSeeds = 5;

template <int D>
void repartition_differential() {
  ThreadGuard guard;
  const RepartitionWeightFn<D> custom = [](const TreeOct<D>& to) {
    return octant_hash(7, to) % 4;  // zero weights included
  };
  // The draws must actually reach the cases the battery names.
  int moved = 0, empty_ranks = 0, ranks_over_leaves = 0, stale_moves = 0;
  for (const int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    for (std::uint64_t seed = 1; seed <= kDiffSeeds; ++seed) {
      for (const int ranks : kDiffRanks) {
        for (const RepartitionWeight w :
             {RepartitionWeight::kOctants, RepartitionWeight::kInsulation,
              RepartitionWeight::kCustom}) {
          for (const FaultInjection inject :
               {FaultInjection::kNone, FaultInjection::kStaleMarkers}) {
            const std::string ctx =
                "D=" + std::to_string(D) + " threads=" +
                std::to_string(threads) + " seed=" + std::to_string(seed) +
                " P=" + std::to_string(ranks) +
                " weight=" + std::to_string(static_cast<int>(w)) +
                (inject == FaultInjection::kNone ? "" : " stale");
            const Forest<D> base = random_forest<D>(seed * 131 + D, ranks);
            for (int r = 0; r < ranks; ++r) {
              if (base.local(r).empty()) {
                ++empty_ranks;
                break;
              }
            }
            if (base.global_num_octants() < static_cast<std::uint64_t>(ranks)) {
              ++ranks_over_leaves;
            }
            Forest<D> got = base, want = base;
            SimComm cg(ranks), cw(ranks);
            cg.set_flight_recording(true);
            cw.set_flight_recording(true);
            RepartitionOptions opt;
            opt.weight = w;
            opt.inject = inject;
            // Two rounds: the second plans against the first's markers,
            // which the stale-marker fault leaves behind.
            for (int round = 0; round < 2; ++round) {
              const RepartitionReport rep = repartition(got, opt, &cg, custom);
              expect_same_report(rep,
                                 reference::repartition(want, opt, &cw, custom),
                                 ctx + " round " + std::to_string(round));
              if (rep.changed()) {
                ++(round == 1 && inject != FaultInjection::kNone ? stale_moves
                                                                  : moved);
              }
            }
            expect_same_forest(got, want, ctx);
            expect_same_traffic(cg, cw, ctx);
            // Uncharged: same result, no communicator.
            Forest<D> quiet = base, quiet_ref = base;
            expect_same_report(repartition(quiet, opt, nullptr, custom),
                               reference::repartition(quiet_ref, opt, nullptr,
                                                      custom),
                               ctx + " uncharged");
            expect_same_forest(quiet, quiet_ref, ctx + " uncharged");
          }
        }
      }
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_GT(empty_ranks, 0);
  EXPECT_GT(ranks_over_leaves, 0);
  EXPECT_GT(stale_moves, 0);
}

TEST(RepartitionDifferential, MatchesReference1D) {
  repartition_differential<1>();
}
TEST(RepartitionDifferential, MatchesReference2D) {
  repartition_differential<2>();
}
TEST(RepartitionDifferential, MatchesReference3D) {
  repartition_differential<3>();
}

template <int D>
void partition_weighted_differential() {
  ThreadGuard guard;
  const auto weight = [](const TreeOct<D>& to) {
    return static_cast<int>(octant_hash(11, to) % 3);  // zero weights included
  };
  for (const int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    for (std::uint64_t seed = 1; seed <= kDiffSeeds; ++seed) {
      for (const int ranks : kDiffRanks) {
        const std::string ctx = "D=" + std::to_string(D) + " threads=" +
                                std::to_string(threads) +
                                " seed=" + std::to_string(seed) +
                                " P=" + std::to_string(ranks);
        const Forest<D> base = random_forest<D>(seed * 131 + D, ranks);
        Forest<D> got = base, want = base;
        SimComm cg(ranks), cw(ranks);
        cg.set_flight_recording(true);
        cw.set_flight_recording(true);
        got.partition_weighted(weight, &cg);
        reference::partition_weighted<D>(want, weight, &cw);
        expect_same_forest(got, want, ctx);
        expect_same_traffic(cg, cw, ctx);
        got.partition_uniform();
        reference::partition_weighted<D>(
            want, [](const TreeOct<D>&) { return 1; }, nullptr);
        expect_same_forest(got, want, ctx + " uniform");
      }
    }
  }
}

TEST(PartitionWeightedDifferential, MatchesReference1D) {
  partition_weighted_differential<1>();
}
TEST(PartitionWeightedDifferential, MatchesReference2D) {
  partition_weighted_differential<2>();
}
TEST(PartitionWeightedDifferential, MatchesReference3D) {
  partition_weighted_differential<3>();
}

TEST(Repartition, EmptyCustomWeightThrowsBeforeTouchingTheForest) {
  Forest<3> f = small_fractal(8);
  prebalance(f);
  skew(f);
  const std::vector<TreeOct<3>> before = f.gather();
  const std::vector<std::size_t> home = cuts_of(f);
  SimComm comm(8);
  RepartitionOptions opt;
  opt.weight = RepartitionWeight::kCustom;
  EXPECT_THROW(repartition(f, opt, &comm), std::invalid_argument);
  EXPECT_EQ(f.gather(), before);
  EXPECT_EQ(cuts_of(f), home);
  EXPECT_EQ(comm.stats().messages, 0u);
  EXPECT_EQ(comm.phase(), "run");
  EXPECT_TRUE(f.is_valid());
}

TEST(Repartition, NegativePartitionWeightThrowsBeforeTouchingTheForest) {
  Forest<3> f = small_fractal(8);
  const std::vector<TreeOct<3>> before = f.gather();
  const std::vector<std::size_t> home = cuts_of(f);
  SimComm comm(8);
  EXPECT_THROW(f.partition_weighted(
                   [](const TreeOct<3>& to) { return to.tree == 1 ? -1 : 1; },
                   &comm),
               std::invalid_argument);
  EXPECT_EQ(f.gather(), before);
  EXPECT_EQ(cuts_of(f), home);
  EXPECT_EQ(comm.stats().messages, 0u);
  EXPECT_TRUE(f.is_valid());
}

}  // namespace
}  // namespace octbal
