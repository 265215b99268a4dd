/// \file bench_repartition.cpp
/// \brief Slack of the repeated balance→repartition loop: how much does a
/// weighted re-split shorten the modeled BSP critical path of balance?
///
/// Per (workload, ranks, mode) configuration the mesh is built, uniformly
/// partitioned and pre-balanced once, so the mesh is *fixed* and every
/// measured round runs the full balance pipeline over identical leaves —
/// round-to-round differences in modeled balance-phase slack are purely
/// partition quality.  Modes:
///
///   static    — the partition_uniform split, measured once (the slack is
///               constant by construction; the trajectory replicates it)
///   weighted  — one-shot insulation-weighted re-split between rounds
///
/// Workloads are the paper's evaluation pair (fractal Figure 15 mesh and
/// the synthetic ice-sheet mesh) at P ∈ {16, 64}.  The report (schema
/// octbal-bench-report-v3) carries a per-run "repartition" section with
/// the slack trajectory, rounds-to-converge and the modeled migration
/// traffic — machine-independent goldens the CI baseline diff pins.
///
///   ./bench_repartition [--rounds 8] [--threads N] [--json out.json]
///                       [--trace trace.json]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "forest/repartition.hpp"
#include "harness.hpp"
#include "repartition_loop.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace octbal;

namespace {

using LoopResult = RepartitionLoopResult;

std::string repartition_json(const LoopResult& lr, const char* mode,
                             int rounds, double reduction) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", mode);
  w.kv("rounds", rounds);
  w.kv("rounds_to_converge", lr.rounds_to_converge);
  w.kv("octants_moved", lr.octants_moved);
  w.kv("migration_messages", lr.migration_messages);
  w.kv("migration_bytes", lr.migration_bytes);
  w.kv("max_marker_shift", lr.max_marker_shift);
  w.kv("reverted_rounds", lr.reverted_rounds);
  w.key("slack_trajectory").begin_array();
  for (const double s : lr.slack) w.value(s);
  w.end_array();
  w.kv("slack_reduction", reduction);
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int rounds = static_cast<int>(cli.get_int("rounds", 8));
  BenchReport report("bench_repartition", cli);

  std::printf("=== Dynamic repartitioning: balance→repartition slack "
              "convergence ===\n");
  configure_threads(cli);
  std::printf("mesh fixed and pre-balanced per config; slack is the "
              "modeled Σ over balance/* phases\n\n");
  std::printf("%-8s %5s %9s %-8s | %11s %11s %6s %4s | %9s %11s\n",
              "workload", "ranks", "octants", "mode", "slack[0]",
              "slack[end]", "red%", "conv", "moved", "migr bytes");

  struct Mode {
    const char* name;
    bool dynamic;
    RepartitionOptions opt;
  };
  std::vector<Mode> modes;
  modes.push_back({"static", false, {}});
  {
    RepartitionOptions o;
    o.mode = RepartitionMode::kWeighted;
    o.weight = RepartitionWeight::kInsulation;
    modes.push_back({"weighted", true, o});
  }

  for (const std::string workload : {"fig15", "icesheet"}) {
    for (const int ranks : {16, 64}) {
      const auto build = [&]() {
        if (workload == "fig15") {
          Forest<3> f(Connectivity<3>::brick({3, 2, 1}), ranks, 2);
          fractal_refine(f, 6);
          f.partition_uniform();
          return f;
        }
        Forest<3> f(Connectivity<3>::brick({8, 8, 1}), ranks, 1);
        icesheet_refine(f, 6);
        f.partition_uniform();
        return f;
      };
      for (const Mode& m : modes) {
        const LoopResult lr = repartition_loop<3>(
            build(), BalanceOptions::new_config(), m.opt, m.dynamic, rounds);
        const double s0 = lr.slack.front(), sn = lr.slack.back();
        const double red = s0 > 0 ? 1.0 - sn / s0 : 0.0;
        std::printf("%-8s %5d %9llu %-8s | %11.4g %11.4g %5.1f%% %4d | "
                    "%9llu %11llu%s\n",
                    workload.c_str(), ranks,
                    static_cast<unsigned long long>(
                        lr.run.rep.octants_after),
                    m.name, s0, sn, 100.0 * red, lr.rounds_to_converge,
                    static_cast<unsigned long long>(lr.octants_moved),
                    static_cast<unsigned long long>(lr.migration_bytes),
                    lr.run.ok ? "" : "  ** FAILED **");
        const std::string algo = workload + "/" + m.name;
        report.add(algo.c_str(), lr.run, 1.0, "repartition",
                   repartition_json(lr, m.name, rounds, red));
      }
    }
  }
  std::printf("\n(dynamic trajectories are monotonically non-increasing by "
              "construction; pinned by the CI baseline diff)\n");
  return report.all_ok() ? 0 : 1;
}
