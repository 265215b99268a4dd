#pragma once
/// \file analysis.hpp
/// \brief Loaders and analyzers for `octbal-bench-report-v*` run reports:
/// phase-breakdown tables (paper Table III / Fig. 13 style), per-phase
/// critical-path attribution, top-talker communication edges, and a
/// structured diff of two reports.  This is the read side of the
/// observability stack; obs/report.hpp + bench/harness.hpp are the write
/// side, and examples/octbal_inspect.cpp is the CLI over this library.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"
#include "obs/report.hpp"

namespace octbal::obs {

/// Resolve the bench-report object inside \p doc: the document itself for
/// schema `octbal-bench-report-v1`/`-v2`, or the (unique) member holding a
/// bench report for the `octbal-bench-baseline-v1` wrapper that
/// BENCH_baseline.json uses.  Returns nullptr (and sets \p err) when the
/// document is neither.  When the wrapper holds *several* bench reports
/// (e.g. fig15_weak and repartition side by side) and \p bench is not
/// empty, the member whose "bench" field equals \p bench wins; otherwise
/// the first report member does.  diff_reports names the fresh report's
/// bench so it is always paired against the matching baseline section,
/// never whichever member happens to sort first.
const JsonValue* bench_report_section(const JsonValue& doc, std::string* err,
                                      const std::string& bench = "");

/// Resolve a google-benchmark results object ("benchmarks" array), either
/// the document itself or the baseline wrapper's `core_ops` member.
const JsonValue* google_benchmark_section(const JsonValue& doc);

/// One aggregated communication edge over all recorded rounds of a run.
struct CommEdge {
  int from = 0;
  int to = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// The heaviest (by bytes, then messages) sender→receiver edges of one
/// run's recorded round matrices.
std::vector<CommEdge> top_talkers(const JsonValue& run, std::size_t n);

/// Pretty text for `octbal_inspect report`: header, per-run phase
/// breakdown, traffic, counters of note, and top talkers.
std::string render_report(const JsonValue& doc, std::string* err);

/// Pretty text for `octbal_inspect critpath`: the per-phase critical-path
/// attribution of every run, with the bounding-rank histogram and the
/// reconciliation against the run's modeled time.
std::string render_critical_path(const JsonValue& doc, std::string* err);

/// Pretty text for `octbal_inspect mem`: each run's deterministic memory
/// section — whole-run peak, bytes per leaf, per-tag totals with per-rank
/// reductions, and the per-phase peak table.  Reports without a memory
/// section (v2 or OCTBAL_OBS_DISABLE builds) get a per-run notice.
std::string render_mem(const JsonValue& doc, std::string* err);

/// One field-level difference between two reports.
struct DiffEntry {
  std::string path;   ///< e.g. "runs[2].comm.bytes"
  std::string base;   ///< rendered baseline value
  std::string fresh;  ///< rendered fresh value
  bool timing = false;  ///< compared under the relative tolerance
};

struct DiffResult {
  std::vector<DiffEntry> mismatches;
  std::uint64_t exact_checked = 0;   ///< machine-independent fields compared
  std::uint64_t timing_checked = 0;  ///< timing fields compared under tol
  std::uint64_t timing_skipped = 0;  ///< timing fields skipped (tol < 0)
  bool ok() const { return mismatches.empty(); }
};

/// Structured report diff: one walk over the two JSON trees.  Objects
/// compare the keys both sides share (a field present on only one side is
/// schema evolution and is ignored), arrays their lengths and then each
/// element, and scalars exactly, unless the scalar's index-normalised path
/// ("runs[].phases.total") is named in the rule table kRules
/// (analysis.cpp): environment fields (`schema`, `threads`, `max_rss_kb`)
/// are skipped; timing fields (phase seconds, modeled times, slack and the
/// reductions derived from them) are compared only when \p tol >= 0, with
/// relative tolerance \p tol and an absolute jitter floor of 1e-4 s below
/// which wall-clock noise dominates; in the sparse `log2_buckets` and
/// `critical_by_rank` maps a key missing on one side counts as 0.  A run
/// whose (algo, ranks) differs from its partner's reports only that
/// identity.  Also accepts two google-benchmark documents, in which case
/// the ordered benchmark name lists must match.  Returns false and sets
/// \p err when the inputs cannot be paired at all.
bool diff_reports(const JsonValue& base, const JsonValue& fresh, double tol,
                  DiffResult& out, std::string* err);

/// Render a DiffResult for humans (one line per mismatch) or as JSON.
std::string render_diff(const DiffResult& d, double tol);
std::string diff_json(const DiffResult& d, double tol);

/// Parse every flight log in \p doc: the "runs" of a standalone
/// `octbal-flight-v1` document, or the embedded "flight" members of a
/// bench report's runs (labeled algo/pN when the log itself has no
/// label).  Returns false and sets \p err when the document carries no
/// flight data or a log is malformed: a digest that is not 16 hex digits,
/// an edge rank outside [0, ranks), or a count that is not a non-negative
/// integer.
bool parse_flight(const JsonValue& doc, std::vector<FlightLog>* out,
                  std::string* err);

/// First-divergence verdict between two flight logs.  Deterministic: a
/// pure function of the two logs.
struct FlightDivergence {
  bool diverged = false;
  /// Earliest differing round index; -1 for a structural mismatch (rank
  /// counts) that makes round pairing meaningless.
  std::int64_t round = -1;
  std::string phase_a, phase_b;  ///< phase labels at the divergent round
  std::string what;              ///< one-line summary of the difference
  struct EdgeDiff {
    int from = -1, to = -1;
    std::string a, b;  ///< rendered per-side content; "absent" when missing
  };
  std::vector<EdgeDiff> edges;        ///< offending edges (capped)
  std::uint64_t edges_differing = 0;  ///< total differing edges at the round
  std::uint64_t rounds_compared = 0;  ///< identical rounds before the verdict
  /// True when the logs agree on their common recorded prefix but at least
  /// one of them was truncated by its record budget: the comparison cannot
  /// see past the truncation point, so neither "identical" nor "round
  /// count differs" would be a sound verdict.  A divergence found *inside*
  /// the recorded prefix is genuine and leaves this false.
  bool truncated = false;
  std::string label_a, label_b;
};

/// Compare two flight logs round-by-round (phase label, then the sorted
/// (from, to) edge sets with their counts and digests) and report the
/// earliest difference.
FlightDivergence flight_bisect(const FlightLog& a, const FlightLog& b);

/// Pair the flight logs of two documents by index and bisect every pair.
/// Returns false and sets \p err, bisecting nothing, when the documents
/// hold different numbers of logs or a pair's labels differ: the pairing
/// would compare unrelated runs.
bool flight_bisect_pairs(const std::vector<FlightLog>& a,
                         const std::vector<FlightLog>& b,
                         std::vector<FlightDivergence>* out, std::string* err);

/// Pretty text for `octbal_inspect flight`: per-log phase timeline
/// (consecutive same-phase round ranges), heaviest edges, and digest
/// spot-checks.
std::string render_flight(const std::vector<FlightLog>& logs);

/// Render a bisect verdict for humans or as JSON
/// (schema octbal-inspect-bisect-v1).
std::string render_bisect(const FlightDivergence& d);
std::string bisect_json(const FlightDivergence& d);

}  // namespace octbal::obs
