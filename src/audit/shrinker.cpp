#include "audit/shrinker.hpp"

#include <algorithm>
#include <sstream>

#include "core/linear.hpp"

namespace octbal::audit {
namespace {

/// Replace every leaf of \p tree under \p anc by \p anc itself.  In a
/// complete linear octree the leaves under an ancestor cover it exactly,
/// so the result is again complete.
template <int D>
std::vector<TreeOct<D>> collapse(const std::vector<TreeOct<D>>& lv,
                                 std::int32_t tree, const Octant<D>& anc) {
  std::vector<TreeOct<D>> out;
  out.reserve(lv.size());
  bool emitted = false;
  for (const auto& t : lv) {
    if (t.tree == tree && contains(anc, t.oct)) {
      if (!emitted) {
        out.push_back(TreeOct<D>{tree, anc});
        emitted = true;
      }
    } else {
      out.push_back(t);
    }
  }
  return out;
}

/// Distinct (tree, ancestor-at-level-l) groups covering >= 2 leaves —
/// the coarsening candidates of one pass.
template <int D>
std::vector<TreeOct<D>> candidates_at(const std::vector<TreeOct<D>>& lv,
                                      int l) {
  std::vector<TreeOct<D>> anc;
  for (const auto& t : lv) {
    if (t.oct.level > l) anc.push_back(TreeOct<D>{t.tree, ancestor(t.oct, l)});
  }
  std::sort(anc.begin(), anc.end(),
            [](const TreeOct<D>& a, const TreeOct<D>& b) { return a < b; });
  std::vector<TreeOct<D>> out;
  for (std::size_t i = 0; i < anc.size();) {
    std::size_t j = i;
    while (j < anc.size() && anc[j] == anc[i]) ++j;
    if (j - i >= 2) out.push_back(anc[i]);
    i = j;
  }
  return out;
}

/// Re-complete a window of the (sorted) forest leaf set back into a full
/// forest tiling: per tree, the kept octants are completed to a coarsest
/// tiling of the tree root; trees with no kept octant come back as a bare
/// root.  The result contains every kept leaf and is valid Forest input.
template <int D>
std::vector<TreeOct<D>> complete_window(const std::vector<TreeOct<D>>& keep,
                                        int ntrees) {
  std::vector<TreeOct<D>> out;
  out.reserve(keep.size());
  std::size_t i = 0;
  for (int tr = 0; tr < ntrees; ++tr) {
    std::vector<Octant<D>> in_tree;
    while (i < keep.size() && keep[i].tree == tr) in_tree.push_back(keep[i++].oct);
    if (in_tree.empty()) {
      out.push_back(TreeOct<D>{tr, root_octant<D>()});
      continue;
    }
    for (const auto& o : complete<D>(in_tree, root_octant<D>())) {
      out.push_back(TreeOct<D>{tr, o});
    }
  }
  return out;
}

/// Invariant equivalence for shrinking: "balance", "serial_diff" and
/// "scramble_invariance" are symptoms of the same defect (a wrong balanced
/// forest) — which one fires first depends on where the first violation
/// happens to sit and on which delivery order tripped the bug, so a
/// simplification may legitimately flip between them.
bool same_failure_class(const std::string& a, const std::string& b) {
  const auto cls = [](const std::string& s) -> std::string {
    return (s == "balance" || s == "serial_diff" ||
            s == "scramble_invariance")
               ? "result"
               : s;
  };
  return cls(a) == cls(b);
}

}  // namespace

template <int D>
ShrinkOutcome<D> Shrinker::shrink(const CaseConfig& cfg,
                                  const CaseData<D>& data,
                                  const InvariantReport& first,
                                  int max_evals) {
  ShrinkOutcome<D> out;
  out.cfg = cfg;
  out.leaves = data.leaves;
  out.report = first;

  const auto fails_same = [&](const CaseConfig& c,
                              const std::vector<TreeOct<D>>& lv,
                              InvariantReport* rep) {
    if (out.evals >= max_evals) return false;
    ++out.evals;
    const CaseData<D> d{data.conn, lv};
    // Attribution re-runs the failing pair with flight recording — three
    // pipeline executions per eval instead of one.  Skip it while probing
    // simplifications; the final shrunk case is re-attributed below.
    CaseConfig quiet = c;
    quiet.attribute_divergence = false;
    InvariantReport r = Invariants::check<D>(quiet, d);
    if (!r.ok && same_failure_class(r.invariant, first.invariant)) {
      if (rep) *rep = std::move(r);
      return true;
    }
    return false;
  };

  // Configuration simplifications, cheapest explanation first: each is
  // kept only if the same invariant still fails without it.
  if (out.cfg.scramble) {
    CaseConfig c = out.cfg;
    c.scramble = false;
    if (fails_same(c, out.leaves, &out.report)) out.cfg = c;
  }
  if (out.cfg.threads > 1) {
    CaseConfig c = out.cfg;
    c.threads = 1;  // also disables the thread-sweep re-runs
    if (fails_same(c, out.leaves, &out.report)) out.cfg = c;
  }
  if (out.cfg.partition != PartitionKind::kEven) {
    CaseConfig c = out.cfg;
    c.partition = PartitionKind::kEven;
    if (fails_same(c, out.leaves, &out.report)) out.cfg = c;
  }
  if (out.cfg.repartition != RepartitionKind::kNone) {
    CaseConfig c = out.cfg;
    c.repartition = RepartitionKind::kNone;
    if (fails_same(c, out.leaves, &out.report)) out.cfg = c;
  }
  if (out.cfg.repartition_rounds > 1) {
    CaseConfig c = out.cfg;
    c.repartition_rounds = 1;
    if (fails_same(c, out.leaves, &out.report)) out.cfg = c;
  }
  for (const int r : {1, 2, out.cfg.ranks / 2}) {
    if (r < 1 || r >= out.cfg.ranks) continue;
    CaseConfig c = out.cfg;
    c.ranks = r;
    if (fails_same(c, out.leaves, &out.report)) {
      out.cfg = c;
      break;
    }
  }

  // SFC leaf-set bisection: deep 3D cases often fail inside one small
  // window of the space-filling curve, and pure ancestor collapse walks
  // there one accepted coarsening at a time.  Halve the sorted leaf set
  // along the curve, re-complete each half into a full forest tiling
  // (the dropped window comes back as coarse filler), and keep whichever
  // half still fails — O(log n) evals per order of magnitude removed,
  // which matters under tight eval budgets where collapse alone stalls
  // far from the minimum.
  bool split = true;
  while (split && out.evals < max_evals && out.leaves.size() >= 4) {
    split = false;
    const auto mid =
        out.leaves.begin() + static_cast<std::ptrdiff_t>(out.leaves.size() / 2);
    for (int half = 0; half < 2 && !split; ++half) {
      const std::vector<TreeOct<D>> keep(
          half == 0 ? out.leaves.begin() : mid,
          half == 0 ? mid : out.leaves.end());
      auto lv = complete_window<D>(keep, data.conn.num_trees());
      if (lv.size() >= out.leaves.size()) continue;
      InvariantReport r;
      if (fails_same(out.cfg, lv, &r)) {
        out.leaves = std::move(lv);
        out.report = std::move(r);
        split = true;
      }
    }
  }

  // Leaf coarsening: coarsest candidates first, restart after every
  // accepted step so freshly exposed coarse groups are retried early.
  bool improved = true;
  while (improved && out.evals < max_evals) {
    improved = false;
    int maxl = 0;
    for (const auto& t : out.leaves) maxl = std::max<int>(maxl, t.oct.level);
    for (int l = 0; l < maxl && !improved; ++l) {
      for (const auto& cand : candidates_at(out.leaves, l)) {
        const auto lv = collapse(out.leaves, cand.tree, cand.oct);
        if (lv.size() >= out.leaves.size()) continue;
        InvariantReport r;
        if (fails_same(out.cfg, lv, &r)) {
          out.leaves = lv;
          out.report = std::move(r);
          improved = true;
          break;
        }
        if (out.evals >= max_evals) break;
      }
    }
  }
  // Re-attribute the shrunk case once, so the reported divergence points
  // at the minimized repro's comm traffic rather than the original's.
  if (!out.report.ok && cfg.attribute_divergence) {
    const CaseData<D> d{data.conn, out.leaves};
    InvariantReport r = Invariants::check<D>(out.cfg, d);
    if (!r.ok && same_failure_class(r.invariant, out.report.invariant)) {
      out.report = std::move(r);
    }
  }
  return out;
}

template <int D>
std::string Shrinker::regression_source(const CaseConfig& cfg,
                                        const CaseData<D>& data,
                                        const InvariantReport& report) {
  std::ostringstream os;
  os << "// Shrunk fuzz repro; replay with: fuzz_main --seeds 1 --seed0 "
     << cfg.seed;
  if (cfg.tier == Tier::kLarge) os << " --tier large";
  if (cfg.opt.inject != FaultInjection::kNone) {
    os << " --inject-bug " << static_cast<int>(cfg.opt.inject);
  }
  os << "\n// Config: " << describe(cfg) << "\n"
     << "// Failing invariant: " << report.invariant << " -- "
     << report.detail << "\n";
  os << "TEST(FuzzRegression, Seed" << cfg.seed << ") {\n";
  if (cfg.conn == ConnKind::kBrick) {
    os << "  const auto conn = Connectivity<" << D << ">::brick({";
    for (int i = 0; i < D; ++i) os << (i ? ", " : "") << cfg.dims[i];
    os << "}, {";
    for (int i = 0; i < D; ++i)
      os << (i ? ", " : "") << (cfg.periodic[i] ? "true" : "false");
    os << "});\n";
  } else {
    os << "  const auto conn = Connectivity<" << D << ">::ring("
       << cfg.ring_trees << ", " << static_cast<int>(cfg.ring_orient)
       << ");\n";
  }
  os << "  const std::vector<TreeOct<" << D << ">> leaves = {\n";
  for (const auto& t : data.leaves) {
    os << "      {" << t.tree << ", {{";
    for (int i = 0; i < D; ++i) os << (i ? ", " : "") << t.oct.x[i];
    os << "}, " << static_cast<int>(t.oct.level) << "}},\n";
  }
  os << "  };\n";
  os << "  Forest<" << D << "> f(conn, " << cfg.ranks << ", leaves);\n";
  if (cfg.partition == PartitionKind::kUniform) {
    os << "  f.partition_uniform();\n";
  } else if (cfg.partition == PartitionKind::kWeighted) {
    os << "  f.partition_weighted([](const TreeOct<" << D
       << ">& to) { return 1 + to.oct.level; });\n";
  }
  os << "  BalanceOptions opt;\n"
     << "  opt.k = " << cfg.k << ";\n"
     << "  opt.subtree = SubtreeAlgo::"
     << (cfg.opt.subtree == SubtreeAlgo::kNew ? "kNew" : "kOld") << ";\n"
     << "  opt.seed_response = " << (cfg.opt.seed_response ? "true" : "false")
     << ";\n"
     << "  opt.grouped_rebalance = "
     << (cfg.opt.grouped_rebalance ? "true" : "false") << ";\n"
     << "  opt.notify_algo = NotifyAlgo::"
     << (cfg.opt.notify_algo == NotifyAlgo::kNotify   ? "kNotify"
         : cfg.opt.notify_algo == NotifyAlgo::kRanges ? "kRanges"
                                                      : "kNaive")
     << ";\n"
     << "  opt.notify_max_ranges = " << cfg.opt.notify_max_ranges << ";\n";
  os << "  SimComm comm(" << cfg.ranks << ");\n";
  if (cfg.scramble) os << "  comm.set_scramble(" << cfg.seed << "ull);\n";
  os << "  balance(f, opt, comm);\n";
  if (cfg.repartition != RepartitionKind::kNone) {
    os << "  RepartitionOptions ropt;\n"
       << "  ropt.weight = RepartitionWeight::"
       << (cfg.repartition == RepartitionKind::kWeightedInsulation
               ? "kInsulation"
               : "kOctants")
       << ";\n";
    if (cfg.opt.inject != FaultInjection::kNone) {
      os << "  ropt.inject = static_cast<FaultInjection>("
         << static_cast<int>(cfg.opt.inject) << ");\n";
    }
    os << "  for (int i = 0; i < " << cfg.repartition_rounds << "; ++i) "
       << "repartition(f, ropt, &comm);\n";
  }
  os << "  EXPECT_TRUE(f.is_valid());\n"
     << "  EXPECT_EQ(f.gather(), forest_balance_serial(leaves, conn, "
     << cfg.k << "));\n"
     << "  EXPECT_TRUE(forest_is_balanced(f.gather(), conn, " << cfg.k
     << "));\n"
     << "}\n";
  return os.str();
}

#define OCTBAL_AUDIT_INSTANTIATE(D)                                          \
  template ShrinkOutcome<D> Shrinker::shrink<D>(                             \
      const CaseConfig&, const CaseData<D>&, const InvariantReport&, int);   \
  template std::string Shrinker::regression_source<D>(                       \
      const CaseConfig&, const CaseData<D>&, const InvariantReport&);
OCTBAL_AUDIT_INSTANTIATE(2)
OCTBAL_AUDIT_INSTANTIATE(3)
#undef OCTBAL_AUDIT_INSTANTIATE

}  // namespace octbal::audit
