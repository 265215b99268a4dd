/// \file octbal_inspect.cpp
/// \brief Analysis CLI over the observability stack's run reports.
///
///   octbal_inspect report   <run.json>
///       Phase-breakdown table (paper Table III / Fig. 13 style), traffic,
///       and top-talker edges of every run in the report.
///   octbal_inspect critpath <run.json>
///       Per-phase BSP critical-path attribution: which rank bounded how
///       many rounds, modeled time vs. perfectly-balanced time, slack.
///   octbal_inspect mem      <run.json>
///       Deterministic memory accounting of every run: whole-run peak
///       bytes (and bytes per leaf), per-tag subsystem totals with
///       per-rank reductions, per-phase peaks, and the non-diffed
///       process max-RSS for context.
///   octbal_inspect diff     <baseline.json> <fresh.json> [--tol R] [--json]
///       Structured comparison.  Machine-independent fields (counters,
///       traffic, round matrices) must match exactly; timing fields are
///       only checked when --tol is given (relative tolerance R).  Exits 0
///       when the reports agree, 1 on any mismatch, 2 on usage/parse
///       errors.  --json replaces the human output with a machine-readable
///       verdict.  Accepts bench reports (v1/v2), the BENCH_baseline.json
///       wrapper, and google-benchmark JSON (compared by benchmark names).
///   octbal_inspect flight   <flight.json>
///       Summarize a comm flight log (octbal-flight-v1, or a bench report
///       with embedded flight members): per-run totals, phase timeline,
///       top edges by volume, digest spot-checks.
///   octbal_inspect bisect   <a.json> [<b.json>] [--json]
///       First-divergence bisection of flight logs: the earliest round
///       where the recorded traffic differs, its phase, and the offending
///       edges.  With two files, the logs are paired by index and every
///       pair is bisected (one verdict each; --json prints one object per
///       line).  With one file, the document's first two runs are paired
///       (the form fuzz_main --flight writes).  Exits 0 when every pair is
///       identical, 1 when any pair diverges, 2 on usage/parse errors, when
///       the two files differ in log count or labels, or when a truncated
///       log leaves the verdict open.
///
/// Reports come from any bench binary's --json flag; BENCH_baseline.json
/// at the repo root is the checked-in perf trajectory CI diffs against.
/// Flight logs come from any bench binary's or fuzz_main's --flight flag.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/json_parse.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: octbal_inspect report   <run.json>\n"
      "       octbal_inspect critpath <run.json>\n"
      "       octbal_inspect mem      <run.json>\n"
      "       octbal_inspect diff     <baseline.json> <fresh.json>"
      " [--tol R] [--json]\n"
      "       octbal_inspect flight   <flight.json>\n"
      "       octbal_inspect bisect   <a.json> [<b.json>] [--json]\n");
  return 2;
}

bool read_file(const char* path, std::string& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) {
    std::fprintf(stderr, "octbal_inspect: cannot open '%s'\n", path);
    return false;
  }
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.append(buf, n);
  }
  std::fclose(f);
  return true;
}

bool load_json(const char* path, octbal::obs::JsonValue& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  std::string err;
  if (!octbal::obs::json_parse(text, out, &err)) {
    std::fprintf(stderr, "octbal_inspect: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> files;
  double tol = -1.0;  // negative: timing comparisons off
  bool as_json = false;
  const char* cmd = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "octbal_inspect: unknown flag '%s'\n", argv[i]);
      return usage();
    } else if (!cmd) {
      cmd = argv[i];
    } else {
      files.push_back(argv[i]);
    }
  }
  if (!cmd) return usage();

  using namespace octbal::obs;
  if (std::strcmp(cmd, "report") == 0 || std::strcmp(cmd, "critpath") == 0 ||
      std::strcmp(cmd, "mem") == 0) {
    if (files.size() != 1) return usage();
    JsonValue doc;
    if (!load_json(files[0], doc)) return 2;
    std::string err;
    const std::string text = std::strcmp(cmd, "report") == 0
                                 ? render_report(doc, &err)
                             : std::strcmp(cmd, "critpath") == 0
                                 ? render_critical_path(doc, &err)
                                 : render_mem(doc, &err);
    if (!err.empty()) {
      std::fprintf(stderr, "octbal_inspect: %s: %s\n", files[0], err.c_str());
      return 2;
    }
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (std::strcmp(cmd, "flight") == 0) {
    if (files.size() != 1) return usage();
    JsonValue doc;
    if (!load_json(files[0], doc)) return 2;
    std::vector<FlightLog> logs;
    std::string err;
    if (!parse_flight(doc, &logs, &err)) {
      std::fprintf(stderr, "octbal_inspect: %s: %s\n", files[0], err.c_str());
      return 2;
    }
    std::fputs(render_flight(logs).c_str(), stdout);
    return 0;
  }
  if (std::strcmp(cmd, "bisect") == 0) {
    if (files.empty() || files.size() > 2) return usage();
    std::vector<FlightLog> a, b;
    std::vector<FlightDivergence> verdicts;
    std::string err;
    if (files.size() == 2) {
      JsonValue da, db;
      if (!load_json(files[0], da) || !load_json(files[1], db)) return 2;
      if (!parse_flight(da, &a, &err)) {
        std::fprintf(stderr, "octbal_inspect: %s: %s\n", files[0],
                     err.c_str());
        return 2;
      }
      if (!parse_flight(db, &b, &err)) {
        std::fprintf(stderr, "octbal_inspect: %s: %s\n", files[1],
                     err.c_str());
        return 2;
      }
      if (!flight_bisect_pairs(a, b, &verdicts, &err)) {
        std::fprintf(stderr, "octbal_inspect: %s vs %s: %s\n", files[0],
                     files[1], err.c_str());
        return 2;
      }
    } else {
      // One file: pair its first two runs (the fuzz_main --flight layout,
      // where the clean and injected logs travel in one document).
      JsonValue doc;
      if (!load_json(files[0], doc)) return 2;
      if (!parse_flight(doc, &a, &err)) {
        std::fprintf(stderr, "octbal_inspect: %s: %s\n", files[0],
                     err.c_str());
        return 2;
      }
      if (a.size() < 2) {
        std::fprintf(stderr,
                     "octbal_inspect: %s: need two flight logs to bisect "
                     "(document has %zu)\n",
                     files[0], a.size());
        return 2;
      }
      verdicts.push_back(flight_bisect(a[0], a[1]));
    }
    bool diverged = false, truncated = false;
    for (const FlightDivergence& d : verdicts) {
      std::fputs((as_json ? bisect_json(d) : render_bisect(d)).c_str(),
                 stdout);
      if (as_json) std::fputs("\n", stdout);
      diverged = diverged || d.diverged;
      truncated = truncated || d.truncated;
    }
    if (diverged) return 1;
    if (truncated) {
      std::fprintf(stderr,
                   "octbal_inspect: refusing to bisect past a truncation "
                   "point (raise the record limit and re-capture)\n");
      return 2;
    }
    return 0;
  }
  if (std::strcmp(cmd, "diff") == 0) {
    if (files.size() != 2) return usage();
    JsonValue base, fresh;
    if (!load_json(files[0], base) || !load_json(files[1], fresh)) return 2;
    DiffResult d;
    std::string err;
    if (!diff_reports(base, fresh, tol, d, &err)) {
      std::fprintf(stderr, "octbal_inspect: %s\n", err.c_str());
      return 2;
    }
    std::fputs((as_json ? diff_json(d, tol) : render_diff(d, tol)).c_str(),
               stdout);
    if (as_json) std::fputs("\n", stdout);
    return d.ok() ? 0 : 1;
  }
  std::fprintf(stderr, "octbal_inspect: unknown command '%s'\n", cmd);
  return usage();
}
