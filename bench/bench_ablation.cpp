/// \file bench_ablation.cpp
/// \brief Ablation of the three design changes (DESIGN.md §4): starting
/// from the old configuration, enable one paper improvement at a time —
/// the new subtree balance (Section III), seed responses with grouped
/// rebalance (Section IV), and the Notify pattern reversal (Section V) —
/// and measure what each contributes on a graded mesh.  The four rows are
/// the paper's whole ablation; the last is BalanceOptions::new_config().
///
///   ./bench_ablation [--ranks 16] [--lmax 6] [--threads N]
///                    [--json out.json] [--trace trace.json]

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

  std::printf("=== Ablation: contribution of each paper section, %d ranks "
              "===\n",
              ranks);
  configure_threads(cli);
  std::printf("\n");
  std::printf("%-28s %9s %9s %9s %9s %9s %12s %12s\n", "configuration",
              "local", "notify", "qry+resp", "rebal", "TOTAL", "bytes",
              "hashq");
  double baseline = 0;
  for (const Step& s : steps) {
    const RunResult r = run_balance<3>(build, ranks, s.opt);
    report.add(s.name, r);
    if (baseline == 0) baseline = r.rep.total();
    std::printf("%-28s %9.4f %9.4f %9.4f %9.4f %9.4f %12llu %12llu   "
                "(%.2fx)\n",
                s.name, r.rep.t_local_balance, r.rep.t_notify,
                r.rep.t_query_response, r.rep.t_local_rebalance,
                r.rep.total(),
                static_cast<unsigned long long>(r.rep.comm.bytes +
                                                r.rep.notify_comm.bytes),
                static_cast<unsigned long long>(r.rep.subtree.hash_queries),
                baseline / r.rep.total());
  }
  return report.all_ok() ? 0 : 1;
}
