/// \file bench_ablation.cpp
/// \brief Ablation of the three design changes (DESIGN.md §4): starting
/// from the old configuration, enable one paper improvement at a time —
/// the new subtree balance (Section III), seed responses with grouped
/// rebalance (Section IV), and the Notify pattern reversal (Section V) —
/// and measure what each contributes on a graded mesh.  The four rows are
/// the paper's whole ablation; the last is BalanceOptions::new_config().
/// Each row is the median-TOTAL run of five; the speedup column divides
/// the baseline row's median by the row's.
///
///   ./bench_ablation [--ranks 16] [--lmax 6] [--threads N]
///                    [--json out.json] [--trace trace.json]

#include <algorithm>
#include <vector>

#include "harness.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace octbal;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 16));
  const int lmax = static_cast<int>(cli.get_int("lmax", 6));
  BenchReport report("bench_ablation", cli);

  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({4, 4, 1}), p, 1);
    icesheet_refine(f, lmax);
    f.partition_uniform();
    return f;
  };
  struct Step {
    const char* name;
    BalanceOptions opt;
  };
  BalanceOptions o_old = BalanceOptions::old_config();
  BalanceOptions o_subtree = o_old;
  o_subtree.subtree = SubtreeAlgo::kNew;
  BalanceOptions o_seeds = o_subtree;
  o_seeds.seed_response = true;
  o_seeds.grouped_rebalance = true;
  BalanceOptions o_all = o_seeds;
  o_all.notify_algo = NotifyAlgo::kNotify;
  const Step steps[] = {
      {"old (baseline)", o_old},
      {"+ new subtree (Sec III)", o_subtree},
      {"+ seeds/grouped (Sec IV)", o_seeds},
      {"+ notify d&c (Sec V) = new", o_all},
  };

  // A single run per row is too noisy at this size to rank the rows, so
  // each row is its median-TOTAL run of kRepeats; --json keeps that one
  // run per row.
  constexpr int kRepeats = 5;
  std::printf("=== Ablation: contribution of each paper section, %d ranks "
              "===\n",
              ranks);
  const int threads = configure_threads(cli);
  std::printf("each row: the median-TOTAL run of %d at %d thread%s; the "
              "speedup divides the baseline's median TOTAL by the row's\n\n",
              kRepeats, threads, threads == 1 ? "" : "s");
  std::printf("%-28s %9s %9s %9s %9s %9s %12s %12s\n", "configuration",
              "local", "notify", "qry+resp", "rebal", "TOTAL", "bytes",
              "hashq");
  const auto bytes_of = [](const RunResult& r) {
    return r.rep.comm.bytes + r.rep.notify_comm.bytes;
  };
  double baseline = 0;
  bool same = true;
  for (const Step& s : steps) {
    std::vector<RunResult> runs;
    for (int i = 0; i < kRepeats; ++i) {
      runs.push_back(run_balance<3>(build, ranks, s.opt));
      if (bytes_of(runs[i]) != bytes_of(runs[0]) ||
          runs[i].rep.subtree.hash_queries !=
              runs[0].rep.subtree.hash_queries) {
        std::fprintf(stderr, "FAIL: %s: repeat %d differs in bytes or hash "
                     "queries from repeat 0\n", s.name, i);
        same = false;
      }
    }
    std::sort(runs.begin(), runs.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.rep.total() < b.rep.total();
              });
    const RunResult& r = runs[kRepeats / 2];
    report.add(s.name, r);
    if (baseline == 0) baseline = r.rep.total();
    std::printf("%-28s %9.4f %9.4f %9.4f %9.4f %9.4f %12llu %12llu   "
                "(%.2fx)\n",
                s.name, r.rep.t_local_balance, r.rep.t_notify,
                r.rep.t_query_response, r.rep.t_local_rebalance,
                r.rep.total(), static_cast<unsigned long long>(bytes_of(r)),
                static_cast<unsigned long long>(r.rep.subtree.hash_queries),
                baseline / r.rep.total());
  }
  return report.all_ok() && same ? 0 : 1;
}
