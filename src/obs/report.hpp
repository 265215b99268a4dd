#pragma once
/// \file report.hpp
/// \brief Machine-readable run reports: the pieces shared between the
/// bench harness (--json run reports, the BENCH_*.json perf-trajectory
/// format) and the failure path (diagnostic dump instead of an abort).

#include <string>
#include <vector>

#include "comm/simcomm.hpp"
#include "forest/balance.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace octbal::obs {

/// Emit the per-phase times and traffic of one balance run as the members
/// of an (already open) JSON object.
void balance_report_json(JsonWriter& w, const BalanceReport& rep);

/// Emit the recorded rounds as send/recv matrices: one array entry per
/// deliver() round with totals and the sparse (from, to, messages, bytes)
/// edges, digests left out.  Writes the value only — call w.key("rounds")
/// first.
void rounds_json(JsonWriter& w, const std::vector<SimComm::Round>& rounds);

/// Emit the per-phase critical-path aggregation (rounds, bounding-rank
/// histogram, modeled time / mean / slack).  Writes the value only — call
/// w.key("critical_path") first.
void critical_path_json(JsonWriter& w,
                        const std::vector<SimComm::PhaseCost>& phases);

/// One run's communication flight log with identifying context: the
/// SimComm rounds recorded with flight digests on (per-round, per-edge
/// counts and payload digests), labeled so two logs can be told apart in
/// a bisect.
/// Serialized inside bench run reports (member "flight") and as the "runs"
/// entries of a standalone octbal-flight-v1 document; parse_flight()
/// (obs/analysis) reads both back.
struct FlightLog {
  std::string label;
  int ranks = 0;
  std::uint64_t rounds_truncated = 0;  ///< rounds dropped by the edge budget
  std::vector<SimComm::Round> rounds;
};

/// Emit one flight log as a JSON object.  64-bit digests serialize as
/// 16-digit hex strings: the DOM parser stores numbers as doubles, which
/// cannot round-trip a uint64.
void flight_log_json(JsonWriter& w, const FlightLog& log);

/// A standalone octbal-flight-v1 document holding \p logs.
std::string flight_doc_json(const std::vector<FlightLog>& logs,
                            const std::string& source);

/// Build the diagnostic report for a run whose result failed validation
/// (e.g. an unbalanced forest): one self-contained JSON object with the
/// error, the configuration, the per-phase report and the metric
/// snapshot.  The harness prints this to stderr instead of aborting.
std::string balance_failure_json(const std::string& error, int ranks,
                                 const BalanceReport& rep,
                                 const Snapshot& metrics);

}  // namespace octbal::obs
