/// \file fuzz_main.cpp
/// \brief Standalone fuzzing driver over the audit subsystem: run a range
/// of seeds through the full randomized pipeline-invariant battery and
/// print a shrunk, ready-to-paste regression test for every failure.
///
/// Usage:
///   fuzz_main [--seeds N] [--seed0 S] [--jobs T] [--tier full|large]
///             [--inject-bug N] [--no-shrink] [--shrink-evals N]
///             [--max-failures N] [--json out.json] [--flight out.json]
///
/// --json writes a machine-readable sweep summary (schema
/// octbal-fuzz-report-v1): seed range, per-seed verdicts, failing
/// invariant ids, shrunk repro sizes and sources.  CI uploads it as an
/// artifact next to the bench run reports.
///
/// --flight writes each failure's comm-divergence flight log (schema
/// octbal-flight-v1, the A/B pair the invariant battery bisected) to the
/// given path; a second failure goes to out.2.json, and so on.  Feed the
/// files to `octbal_inspect bisect` to localize the first divergent round.
///
/// --tier large runs the oracle-free battery on ~10^5-octant cases with
/// 64-192 simulated ranks (see src/audit/case.hpp).  --inject-bug N plants
/// FaultInjection value N (1 = skip-insulation-neighbor, 2 = order-
/// dependent reduce, 3 = stale partition markers after the repartition
/// pass migrates the data) so the battery's teeth can be demonstrated.
///
/// Exit status 0 iff every case passed.  A failure report always includes
/// the replay command line for its seed.

#include <cstdio>
#include <string>

#include "audit/fuzzer.hpp"
#include "util/cli.hpp"

namespace {

/// out.json, out.2.json, out.3.json, ... for the Nth failure (1-based).
std::string flight_file_name(const std::string& base, int n) {
  if (n <= 1) return base;
  const std::size_t dot = base.rfind('.');
  const std::string suffix = "." + std::to_string(n);
  if (dot == std::string::npos) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace octbal;
  const Cli cli(argc, argv);
  audit::FuzzOptions opt;
  opt.seeds = static_cast<int>(cli.get_int("seeds", 50));
  opt.seed0 = static_cast<std::uint64_t>(cli.get_int("seed0", 1));
  opt.jobs = static_cast<int>(cli.get_int("jobs", 1));
  opt.shrink = !cli.has("no-shrink");
  opt.shrink_evals = static_cast<int>(cli.get_int("shrink-evals", 300));
  opt.max_failures = static_cast<int>(cli.get_int("max-failures", 8));
  const std::string tier = cli.get_string("tier", "full");
  if (tier == "large") {
    opt.tier = audit::Tier::kLarge;
  } else if (tier != "full") {
    std::fprintf(stderr, "unknown --tier '%s' (use full or large)\n",
                 tier.c_str());
    return 2;
  }
  switch (cli.get_int("inject-bug", 0)) {
    case 0:
      break;
    case 1:
      opt.inject = FaultInjection::kSkipInsulationNeighbor;
      break;
    case 2:
      opt.inject = FaultInjection::kOrderDependentReduce;
      break;
    case 3:
      opt.inject = FaultInjection::kStaleMarkers;
      break;
    default:
      std::fprintf(stderr, "unknown --inject-bug value\n");
      return 2;
  }

  std::printf("fuzz: seeds [%llu, %llu), jobs=%d, tier=%s%s\n",
              static_cast<unsigned long long>(opt.seed0),
              static_cast<unsigned long long>(opt.seed0) + opt.seeds,
              opt.jobs, tier.c_str(),
              opt.inject != FaultInjection::kNone ? ", fault injection ON"
                                                  : "");

  const audit::FuzzSummary sum = audit::Fuzzer(opt).run();

  const std::string flight_path = cli.get_string("flight", "");
  int flight_written = 0;
  for (const auto& f : sum.failures) {
    std::printf("\nFAIL seed=%llu invariant=%s\n  %s\n  config: %s\n",
                static_cast<unsigned long long>(f.seed), f.invariant.c_str(),
                f.detail.c_str(), f.config.c_str());
    std::printf("  replay: %s --seeds 1 --seed0 %llu%s",
                cli.program().c_str(),
                static_cast<unsigned long long>(f.seed),
                opt.tier == audit::Tier::kLarge ? " --tier large" : "");
    if (opt.inject != FaultInjection::kNone) {
      std::printf(" --inject-bug %d", static_cast<int>(opt.inject));
    }
    std::printf("\n");
    if (!flight_path.empty() && !f.flight_doc.empty()) {
      const std::string path =
          flight_file_name(flight_path, ++flight_written);
      if (std::FILE* fp = std::fopen(path.c_str(), "w")) {
        std::fwrite(f.flight_doc.data(), 1, f.flight_doc.size(), fp);
        std::fclose(fp);
        if (f.divergent_round >= 0) {
          std::printf("  flight log: %s (first divergent round %lld, phase "
                      "%s, edge %s; octbal_inspect bisect to drill in)\n",
                      path.c_str(),
                      static_cast<long long>(f.divergent_round),
                      f.divergent_phase.c_str(), f.divergent_edge.c_str());
        } else {
          std::printf("  flight log: %s (A/B flights identical: defect is "
                      "after the last comm round)\n",
                      path.c_str());
        }
      } else {
        std::fprintf(stderr, "cannot write flight log to '%s'\n",
                     path.c_str());
      }
    } else if (f.divergent_round >= 0) {
      std::printf("  first divergent round %lld (phase %s, edge %s); rerun "
                  "with --flight out.json to capture the logs\n",
                  static_cast<long long>(f.divergent_round),
                  f.divergent_phase.c_str(), f.divergent_edge.c_str());
    }
    if (!f.mem_summary.empty()) {
      std::printf("  memory: %s\n", f.mem_summary.c_str());
    }
    std::printf("  minimized to %zu octants; regression test:\n\n%s\n",
                f.repro_octants, f.repro.c_str());
  }

  std::printf("\nfuzz: %d case(s) run, %d failed", sum.cases_run, sum.failed);
  if (sum.failed > static_cast<int>(sum.failures.size())) {
    std::printf(" (stopped at --max-failures %d)", opt.max_failures);
  }
  std::printf("\n");

  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty()) {
    const std::string doc = audit::fuzz_summary_json(opt, sum);
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("fuzz report written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write fuzz report to '%s'\n",
                   json_path.c_str());
      return 2;
    }
  }
  return sum.ok() ? 0 : 1;
}
