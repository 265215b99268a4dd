#pragma once
/// \file forest.hpp
/// \brief A distributed forest of octrees: per-rank sorted leaf arrays,
/// a space-filling-curve global order, partition markers, and refinement /
/// coarsening (Section II).
///
/// The forest stores, for each simulated rank, the sorted array of leaf
/// octants it owns.  The global order is (tree id, Morton); partition
/// markers record where each rank's range begins, enabling O(log P) owner
/// lookups for arbitrary octant ranges — the mechanism behind the Query
/// phase of one-pass balance.

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/simcomm.hpp"
#include "forest/connectivity.hpp"
#include "obs/mem.hpp"

namespace octbal {

/// A position on the global space-filling curve: the first finest-level
/// descendant of an octant, comparable across the whole forest.
struct GlobalPos {
  std::int32_t tree = 0;
  morton_t key = 0;

  friend bool operator==(const GlobalPos&, const GlobalPos&) = default;
  friend bool operator<(const GlobalPos& a, const GlobalPos& b) {
    if (a.tree != b.tree) return a.tree < b.tree;
    return a.key < b.key;
  }
  friend bool operator<=(const GlobalPos& a, const GlobalPos& b) {
    return !(b < a);
  }
};

template <int D>
GlobalPos position_of(const TreeOct<D>& to) {
  return GlobalPos{to.tree, morton_key(to.oct)};
}

/// One past the last position covered by \p to.
template <int D>
GlobalPos end_position_of(const TreeOct<D>& to) {
  return GlobalPos{to.tree,
                   morton_key(to.oct) + (morton_t{1} << (D * size_exp(to.oct)))};
}

template <int D>
class Forest {
 public:
  /// The refine and coarsen predicate.  refine() and coarsen() run their
  /// rank bodies in par::parallel_for_ranks, so:
  ///   - the predicate is called concurrently from the rank workers;
  ///   - within a rank, it is called in SFC order (the leaf order, and in
  ///     a recursive refine a parent before its children);
  ///   - it is never called for a max-level octant, which refine() keeps
  ///     as a leaf without asking;
  ///   - so a stateful predicate (one that draws from an Rng, say) is
  ///     deterministic only on a forest with one rank.  On more ranks it
  ///     is a data race; decide on one rank first and pass a lookup.
  using RefinePred = std::function<bool(const TreeOct<D>&)>;

  /// A uniformly refined forest at \p level, partitioned evenly over
  /// \p nranks ranks.  Throws std::invalid_argument when nranks < 1 or
  /// \p level lies outside [0, max_level<D>].
  Forest(Connectivity<D> conn, int nranks, int level);

  /// A forest with explicitly given leaves (sorted internally), partitioned
  /// evenly over \p nranks.  Every tree of the connectivity must be covered
  /// by a complete linear octree — the representation the audit subsystem's
  /// shrinker rebuilds forests from (is_valid() reports violations).
  /// Throws std::invalid_argument when nranks < 1.
  Forest(Connectivity<D> conn, int nranks, std::vector<TreeOct<D>> leaves);

  const Connectivity<D>& connectivity() const { return conn_; }
  int num_ranks() const { return static_cast<int>(local_.size()); }

  std::vector<TreeOct<D>>& local(int rank) { return local_[rank]; }
  const std::vector<TreeOct<D>>& local(int rank) const { return local_[rank]; }

  /// Partition markers: rank r owns SFC positions [marker(r), marker(r+1)).
  const GlobalPos& marker(int r) const { return marks_[r]; }

  /// The full marker array (size num_ranks() + 1), for callers that resolve
  /// owners with their own bounded searches (OwnerWindow below).
  const std::vector<GlobalPos>& markers() const { return marks_; }

  /// All ranks whose ranges intersect [lo, hi) — half-open in curve
  /// positions.  Returns {first, last} rank inclusive, or {1, 0} if none.
  std::pair<int, int> owners_of(const GlobalPos& lo, const GlobalPos& hi) const;

  /// Refine every leaf below max_level for which \p pred returns true;
  /// with \p recursive, newly created children are tested again (up to
  /// max_level).  Without it, \p pred is called once per leaf below
  /// max_level and never for the new children.  Each rank refines its own
  /// leaves (see RefinePred for what that asks of \p pred).
  void refine(const RefinePred& pred, bool recursive);

  /// Coarsen every complete family, fully owned by one rank, whose members
  /// all satisfy \p pred.  One sweep (not recursive).  With \p balance_k
  /// > 0, a family is additionally vetoed unless the collapse is 2:1-safe
  /// at codimension balance_k: no current leaf overlapping the parent's
  /// insulation layer is two or more levels finer than the parent.  Every
  /// family is judged against the pre-sweep leaf set, so simultaneous
  /// collapses of adjacent families cannot jointly break balance — a
  /// vetoed coarsen of a 2:1-balanced forest stays 2:1-balanced, which is
  /// what lets delta_balance() treat coarsening as a no-op for the
  /// balance condition (see forest/delta_balance.hpp).  Each rank scans
  /// its own leaves, and the veto reads the pre-sweep rank arrays in
  /// place: no rank installs its result before every rank is done.
  /// Within a family, \p pred is called member by member and stops at the
  /// first false.  Throws std::invalid_argument when balance_k lies
  /// outside [0, D].
  void coarsen(const RefinePred& pred, int balance_k = 0);

  /// The dirty log: every leaf created by refine() or coarsen() since the
  /// last clear_dirty(), in creation order — per sweep, rank by rank, and
  /// in SFC order within a rank — unsorted and possibly stale: an entry
  /// may have been split or collapsed away by a later batch.
  /// delta_balance() consumes and clears it; a full balance() does not
  /// touch it, so callers switching paths clear it themselves.
  const std::vector<TreeOct<D>>& dirty() const { return dirty_; }
  void clear_dirty() {
    dirty_.clear();
    dirty_mem_.set(obs::MemTag::kDirtyLog, 0);
  }

  /// Redistribute octants so every rank owns an equal share (±1), updating
  /// the partition markers.  Bytes crossing rank boundaries are charged to
  /// \p comm when given.
  void partition_uniform(SimComm* comm = nullptr);

  /// Weighted variant: rank boundaries equalize the sum of \p weight, by
  /// repartition()'s split (defined in forest/repartition.cpp).  \p weight
  /// is called concurrently from the rank workers, and twice for some
  /// octants, so it must be pure; a negative weight throws
  /// std::invalid_argument with the forest untouched.
  void partition_weighted(const std::function<int(const TreeOct<D>&)>& weight,
                          SimComm* comm = nullptr);

  std::uint64_t global_num_octants() const;

  /// Concatenation of all ranks' leaves (global SFC order) — for tests,
  /// examples and serial oracles.
  std::vector<TreeOct<D>> gather() const;

  /// Structural invariants: per-rank sorted linear arrays, ranges within
  /// markers, and per-tree completeness of the union.
  bool is_valid() const;

  /// Recompute markers from the current first octants (used after balance
  /// replaces the local arrays in place; ownership regions are unchanged).
  void refresh_markers();

  /// Re-charge the per-rank leaf arrays and dirty log against the
  /// *currently installed* memory accountant.  Every mutator does this via
  /// refresh_markers(); call it directly when a MemSession starts after
  /// the forest was built, so the session's baseline includes the mesh.
  void account_memory();

 private:
  /// Install sorted \p all with every rank owning an equal share (±1).
  void split_evenly(std::vector<TreeOct<D>> all);

  /// Install a sweep's per-rank results: \p next replaces each rank's
  /// leaves, and \p created is appended to the dirty log in rank order.
  void install(std::vector<std::vector<TreeOct<D>>>& next,
               const std::vector<std::vector<TreeOct<D>>>& created);

  Connectivity<D> conn_;
  std::vector<std::vector<TreeOct<D>>> local_;
  std::vector<GlobalPos> marks_;  // size nranks + 1
  /// Leaves created by refine()/coarsen() since the last clear_dirty().
  /// Stored globally (not per rank) so repartitioning between the churn
  /// batch and the delta balance cannot orphan an entry.
  std::vector<TreeOct<D>> dirty_;
  /// Memory accounting (obs/mem.hpp): one kForestLeaves scope per rank
  /// slot, one engine-slot kDirtyLog scope.  Copying the forest duly
  /// re-charges both.  Updated at every refresh_markers()/clear_dirty().
  std::vector<obs::MemScope> leaf_mem_;
  obs::MemScope dirty_mem_;
};

/// Counters of the windowed owner resolution (OwnerWindow).  All counts are
/// deterministic and machine independent — tests/test_perf_guards.cpp pins
/// per-octant upper bounds on them so the fast paths cannot silently rot.
struct OwnerScanStats {
  std::uint64_t lookups = 0;        ///< owner resolutions requested
  std::uint64_t cache_hits = 0;     ///< served by the one-entry last-hit cache
  std::uint64_t window_scans = 0;   ///< served by a bounded in-window scan
  std::uint64_t full_searches = 0;  ///< fell back to the O(log P) search
  std::uint64_t comparisons = 0;    ///< partition-marker comparisons, all paths

  OwnerScanStats& operator+=(const OwnerScanStats& o) {
    lookups += o.lookups;
    cache_hits += o.cache_hits;
    window_scans += o.window_scans;
    full_searches += o.full_searches;
    comparisons += o.comparisons;
    return *this;
  }
};

/// Owner resolution for a *stream* of nearby ranges, replacing per-range
/// Forest::owners_of binary searches in the phase-2 query walk and the
/// ghost candidate walk (the ROADMAP's hot spot at large P).
///
/// Exactness: owners_of(lo, hi) is monotone in both bounds — shrinking
/// [lo, hi) can only shrink the owner range.  So once the insulation
/// envelope's owner window [w0, w1] is resolved (one O(log P) search per
/// octant), every piece of that envelope resolves inside the window with a
/// bounded scan, and a piece covered by the previously returned single rank
/// is answered by two marker comparisons.  Every path returns exactly what
/// Forest::owners_of returns; only the search work changes.
template <int D>
class OwnerWindow {
 public:
  explicit OwnerWindow(const Forest<D>& f, OwnerScanStats* stats = nullptr)
      : marks_(f.markers()),
        p_(f.num_ranks()),
        stats_(stats) {}

  /// Resolve the owner window of the envelope [lo, hi) — one full search.
  /// Subsequent owners_of calls for subranges scan inside the window.
  void set_window(const GlobalPos& lo, const GlobalPos& hi) {
    win_lo_ = lo;
    win_hi_ = hi;
    const auto [a, b] = full_search(lo, hi);
    w0_ = a;
    w1_ = b;
    have_window_ = a <= b;
  }

  /// Forget the window (the cache stays: it re-validates on every hit).
  void clear_window() { have_window_ = false; }

  /// Exactly Forest::owners_of(lo, hi), via the cache / window fast paths.
  std::pair<int, int> owners_of(const GlobalPos& lo, const GlobalPos& hi) {
    if (stats_ != nullptr) ++stats_->lookups;
    // One-entry last-hit cache: consecutive pieces of the same insulation
    // layer overwhelmingly land on the same rank, whose span covering
    // [lo, hi) proves {cache_, cache_} is the exact answer.
    if (cache_ >= 0) {
      count(2);
      if (!(lo < marks_[cache_]) && le(hi, marks_[cache_ + 1])) {
        if (stats_ != nullptr) ++stats_->cache_hits;
        return {cache_, cache_};
      }
    }
    int first, last;
    if (have_window_ && le(win_lo_, lo) && le(hi, win_hi_)) {
      count(2);
      if (stats_ != nullptr) ++stats_->window_scans;
      if (w1_ - w0_ <= kLinearMax) {
        // Bounded forward scan: find the last marker <= lo, then extend to
        // the last marker < hi.  The window guarantee keeps both in
        // [w0_, w1_], so the scans cannot run off the true answer.
        first = w0_;
        while (first < w1_ && (count(1), le(marks_[first + 1], lo))) ++first;
        last = first;
        while (last < w1_ && (count(1), marks_[last + 1] < hi)) ++last;
      } else {
        // Wide window (very coarse octant): bounded binary search.
        std::tie(first, last) = bounded_search(lo, hi, w0_, w1_);
      }
    } else {
      if (have_window_) count(2);
      if (stats_ != nullptr) ++stats_->full_searches;
      std::tie(first, last) = full_search(lo, hi);
      if (last < first) {
        cache_ = -1;
        return {1, 0};
      }
    }
    cache_ = first == last ? first : -1;
    return {first, last};
  }

 private:
  static constexpr int kLinearMax = 8;  ///< window width for linear scans

  void count(int n) {
    if (stats_ != nullptr) stats_->comparisons += static_cast<std::uint64_t>(n);
  }
  bool le(const GlobalPos& a, const GlobalPos& b) const { return !(b < a); }

  /// Forest::owners_of, with counted comparisons.
  std::pair<int, int> full_search(const GlobalPos& lo, const GlobalPos& hi) {
    return bounded_search(lo, hi, 0, p_ - 1);
  }

  /// owners_of restricted to marker indices [a, b + 1] — exact whenever the
  /// true answer lies in [a, b].
  std::pair<int, int> bounded_search(const GlobalPos& lo, const GlobalPos& hi,
                                     int a, int b) {
    const auto cmp = [this](const GlobalPos& x, const GlobalPos& y) {
      if (stats_ != nullptr) ++stats_->comparisons;
      return x < y;
    };
    const auto begin = marks_.begin() + a;
    const auto end = marks_.begin() + b + 2;  // one past marker b + 1
    int first =
        static_cast<int>(std::upper_bound(begin, end, lo, cmp) -
                         marks_.begin()) - 1;
    if (first < a) first = a;
    int last = static_cast<int>(std::lower_bound(begin, end, hi, cmp) -
                                marks_.begin()) - 1;
    if (last > b) last = b;
    return {first, last};
  }

  const std::vector<GlobalPos>& marks_;
  int p_;
  OwnerScanStats* stats_;
  GlobalPos win_lo_{}, win_hi_{};
  int w0_ = 0, w1_ = -1;
  bool have_window_ = false;
  int cache_ = -1;  ///< last single-rank answer, -1 when invalid
};

/// Summary statistics of a forest, for reporting and regression checks.
struct ForestStats {
  std::uint64_t leaves = 0;
  std::size_t min_per_rank = 0;
  std::size_t max_per_rank = 0;
  int min_level = 0;
  int max_level_seen = 0;
  double avg_level = 0.0;
};

template <int D>
ForestStats forest_stats(const Forest<D>& f);

/// Deterministic, partition-independent content checksum: two forests have
/// the same checksum iff (with overwhelming probability) they hold the
/// same leaves.  The p4est-style tool for cross-run regression checks.
template <int D>
std::uint64_t forest_checksum(const Forest<D>& f);

/// Forest-level balance check across tree boundaries: every pair of leaves
/// sharing a boundary object of codimension <= k — possibly in different
/// trees — differs by at most one level.  O(N log N); a test oracle.
/// Throws std::invalid_argument (as do forest_find_violation and
/// forest_balance_serial) when k lies outside [1, D].
template <int D>
bool forest_is_balanced(const std::vector<TreeOct<D>>& leaves,
                        const Connectivity<D>& conn, int k);

/// A concrete 2:1 violation found by forest_is_balanced's sweep, for
/// diagnostics: the coarse leaf, the offending finer leaf mapped into the
/// coarse leaf's tree frame, and the codimension of the shared boundary.
template <int D>
struct BalanceViolation {
  TreeOct<D> coarse;
  TreeOct<D> fine;    ///< tree = the fine leaf's own tree
  Octant<D> mapped;   ///< fine leaf in the coarse leaf's frame
  int codim = 0;
};

/// Like forest_is_balanced, but fills \p out with the first violation when
/// the forest is unbalanced.  Used by the audit invariants to name the
/// offending pair in failure reports.
template <int D>
bool forest_find_violation(const std::vector<TreeOct<D>>& leaves,
                           const Connectivity<D>& conn, int k,
                           BalanceViolation<D>* out);

/// Serial reference balance of a whole forest: per-tree subtree balance
/// with transformed exterior constraints from neighboring trees, iterated
/// to a fixed point.  The ground truth for the distributed pipeline.
template <int D>
std::vector<TreeOct<D>> forest_balance_serial(std::vector<TreeOct<D>> leaves,
                                              const Connectivity<D>& conn,
                                              int k);

}  // namespace octbal
