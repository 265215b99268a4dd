#pragma once
/// \file harness.hpp
/// \brief Shared helpers for the figure-reproduction benchmark binaries:
/// run the full one-pass balance in a given configuration, print the
/// per-phase rows the paper plots, and (new) emit machine-readable run
/// reports and Perfetto traces.
///
/// Every bench built on this harness understands:
///   --json out.json    write a structured run report (the BENCH_*.json
///                      perf-trajectory format: config, per-phase times,
///                      per-rank stats, message histograms, α–β model)
///   --trace out.json   record a Chrome trace_event file of the run
///                      (load in https://ui.perfetto.dev)
///   --flight out.json  add payload digests to the recorded comm rounds
///                      and write them as a flight log (schema
///                      octbal-flight-v1: per-round, per-edge counts and
///                      digests; bisect two with octbal_inspect)
///   --threads N        thread-pool override (wall-clock only; counters
///                      are identical for every thread count)

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "forest/balance.hpp"
#include "obs/mem.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace octbal {

/// Apply a --threads override (0 keeps OCTBAL_THREADS / hardware default)
/// and report the count actually used.  Threads change wall-clock only:
/// message counts, byte volumes and the α–β modeled time are identical for
/// every thread count, so speedup rows are directly comparable.
inline int configure_threads(const Cli& cli) {
  // Pool sizes beyond any plausible core count are almost certainly typos
  // (and would actually spawn that many OS threads); clamp with a warning
  // like the other validated flags.
  constexpr long long kMaxThreads = 1024;
  long long want = cli.get_int("threads", 0);
  if (want < 0) {
    std::fprintf(stderr,
                 "--threads %lld: thread count must be >= 1 (0 keeps the "
                 "OCTBAL_THREADS / hardware default); ignoring\n",
                 want);
    want = 0;
  } else if (want > kMaxThreads) {
    std::fprintf(stderr, "--threads %lld: clamping to %lld\n", want,
                 kMaxThreads);
    want = kMaxThreads;
  }
  if (want > 0) par::set_num_threads(static_cast<int>(want));
  const int used = par::num_threads();
  std::printf("rank execution: %d thread%s (--threads N or OCTBAL_THREADS "
              "to override)\n",
              used, used == 1 ? "" : "s");
  return used;
}

struct RunResult {
  BalanceReport rep;
  std::uint64_t octants = 0;  ///< octants before balance
  int ranks = 1;
  bool ok = true;             ///< result passed the 2:1 validation
  std::string error;          ///< failure description when !ok
  double modeled_time = 0;    ///< α–β time of the whole run
  obs::Snapshot metrics;      ///< the run's full metrics registry
  std::vector<SimComm::Round> rounds;  ///< recorded comm rounds
  std::uint64_t rounds_truncated = 0;  ///< rounds dropped by the record cap
  /// The rounds carry flight digests (SimComm::flight_default() was on,
  /// i.e. the bench ran with --flight): the run also has a flight log.
  bool flight = false;
  std::vector<SimComm::PhaseCost> critical_path;  ///< per-phase attribution
  /// Deterministic memory accounting: per-tag / per-phase peak bytes from
  /// the run's MemSession (empty when OCTBAL_OBS_DISABLE compiled the
  /// hooks out).  Byte-identical across thread counts and scrambles, so
  /// the report diff pins it exactly.
  obs::MemSnapshot memory;
  /// getrusage max-RSS in KB at the end of the run; -1 where unsupported.
  /// Whole-process and allocator-dependent, so it is a timing-class field:
  /// reported for context, never diffed.
  std::int64_t max_rss_kb = -1;
};

/// Process high-water RSS in KB (getrusage), -1 on platforms without it.
inline std::int64_t current_max_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KB on Linux/BSD
#endif
#else
  return -1;
#endif
}

/// Balance a freshly built forest (the builder is invoked so that old and
/// new variants see identical meshes) and verify the result.  A failed
/// verification no longer aborts: the run is marked !ok and a diagnostic
/// JSON report goes to stderr, so sweeps keep running and the bad
/// configuration is fully described.
template <int D, typename Builder>
RunResult run_balance(Builder&& build, int ranks, const BalanceOptions& opt) {
  // The memory session brackets mesh construction through the last comm
  // barrier; the snapshot is taken *before* the 2:1 validation so the
  // oracle's own scratch never pollutes the accounted peaks.
  obs::MemSession mem(ranks);
  Forest<D> f = build(ranks);
  RunResult r;
  r.ranks = ranks;
  r.octants = f.global_num_octants();
  SimComm comm(ranks);
  r.rep = balance(f, opt, comm);
  r.modeled_time = comm.modeled_time();
  r.metrics = comm.metrics().snapshot();
  r.rounds = comm.rounds();
  r.rounds_truncated = comm.rounds_truncated();
  r.flight = comm.flight_recording();
  r.critical_path = comm.critical_path();
  r.memory = mem.snapshot();
  r.max_rss_kb = current_max_rss_kb();
  const int k = opt.k == 0 ? D : opt.k;
  if (!forest_is_balanced(f.gather(), f.connectivity(), k)) {
    r.ok = false;
    r.error = "unbalanced result after one-pass balance";
    std::fprintf(stderr, "FAIL: %s (ranks=%d)\n%s\n", r.error.c_str(), ranks,
                 obs::balance_failure_json(r.error, ranks, r.rep, r.metrics)
                     .c_str());
  }
  return r;
}

inline void print_phase_header(const char* metric) {
  std::printf("%6s %10s %7s | %9s %9s %9s %9s %9s | %s\n", "ranks", "octants",
              "algo", "local", "notify", "qry+resp", "rebal", "TOTAL",
              metric);
}

/// One row of a Figure 15/17-style table.  \p norm divides the phase times
/// (1.0 for raw seconds; millions-of-octants-per-rank for weak scaling).
inline void print_phase_row(const RunResult& r, const char* algo,
                            double norm) {
  const auto& p = r.rep;
  std::printf("%6d %10llu %7s | %9.4f %9.4f %9.4f %9.4f %9.4f | msgs=%llu "
              "bytes=%llu%s\n",
              r.ranks, static_cast<unsigned long long>(p.octants_after), algo,
              p.t_local_balance / norm, p.t_notify / norm,
              p.t_query_response / norm, p.t_local_rebalance / norm,
              p.total() / norm,
              static_cast<unsigned long long>(p.comm.messages +
                                              p.notify_comm.messages),
              static_cast<unsigned long long>(p.comm.bytes +
                                              p.notify_comm.bytes),
              r.ok ? "" : "  ** UNBALANCED **");
}

/// Fail fast when a report sink is unwritable: discovering a typo'd
/// --json/--trace/--flight path at exit — after the whole run — silently
/// loses the report.  Probe with an append-mode open, which creates a
/// missing file without clobbering an existing one.
inline void require_writable(const char* flag, const std::string& path) {
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "ab")) {
    std::fclose(f);
    return;
  }
  std::fprintf(stderr,
               "--%s: cannot write '%s': %s (fix the path before the run "
               "starts; nothing has been benchmarked)\n",
               flag, path.c_str(), std::strerror(errno));
  std::exit(2);
}

/// Structured run reporting for a bench binary.  Construct once at the
/// top of main (this also starts the --trace session, so the whole run is
/// covered, and enables flight recording when --flight was given); record
/// every run with add(); the report, trace, and flight files are written
/// when the object goes out of scope.
class BenchReport {
 public:
  BenchReport(const char* bench, const Cli& cli)
      : bench_(bench),
        json_path_(cli.get_string("json", "")),
        trace_path_(cli.get_string("trace", "")),
        flight_path_(cli.get_string("flight", "")) {
    require_writable("json", json_path_);
    require_writable("trace", trace_path_);
    require_writable("flight", flight_path_);
    for (const auto& [key, value] : cli.args()) {
      if (key != "json" && key != "trace" && key != "flight") {
        config_.push_back({key, value});
      }
    }
    if (!trace_path_.empty()) obs::trace_begin(trace_path_);
    if (!flight_path_.empty()) SimComm::set_flight_default(true);
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    if (!trace_path_.empty()) {
      obs::trace_end();
      std::printf("trace written to %s (load in https://ui.perfetto.dev)\n",
                  trace_path_.c_str());
    }
    if (!flight_path_.empty()) {
      SimComm::set_flight_default(false);
      const std::string doc = obs::flight_doc_json(flight_logs(), bench_);
      if (std::FILE* f = std::fopen(flight_path_.c_str(), "w")) {
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        std::printf("flight log written to %s (octbal_inspect flight/bisect "
                    "to analyze)\n",
                    flight_path_.c_str());
      } else {
        std::fprintf(stderr, "cannot write flight log to '%s'\n",
                     flight_path_.c_str());
      }
    }
    if (json_path_.empty()) return;
    const std::string doc = json();
    if (std::FILE* f = std::fopen(json_path_.c_str(), "w")) {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("run report written to %s\n", json_path_.c_str());
    } else {
      std::fprintf(stderr, "cannot write run report to '%s'\n",
                   json_path_.c_str());
    }
  }

  /// Record one balance run.  \p norm is the same normalization the
  /// printed row used (stored so the JSON is self-describing).
  void add(const char* algo, const RunResult& r, double norm = 1.0) {
    rows_.push_back({algo, norm, r, "", ""});
    all_ok_ = all_ok_ && r.ok;
  }

  /// Record one run with a bench-specific extra section: \p extra_json
  /// (pre-rendered, well-formed JSON) is spliced verbatim as the run's
  /// \p extra_key member — e.g. bench_repartition's "repartition" object
  /// with the slack trajectory and migration goldens.
  void add(const char* algo, const RunResult& r, double norm,
           std::string extra_key, std::string extra_json) {
    rows_.push_back({algo, norm, r, std::move(extra_key),
                     std::move(extra_json)});
    all_ok_ = all_ok_ && r.ok;
  }

  bool all_ok() const { return all_ok_; }

  /// The complete run-report document (schema octbal-bench-report-v3:
  /// v2 plus the per-run "memory" section and the non-diffed max_rss_kb).
  /// Public so tests can round-trip the exact bytes through
  /// obs::json_parse without touching the filesystem.
  std::string json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "octbal-bench-report-v3");
    w.kv("bench", bench_);
    w.kv("threads", par::num_threads());
    w.kv("ok", all_ok_);
    w.key("config").begin_object();
    for (const auto& [key, value] : config_) w.kv(key, value);
    w.end_object();
    w.key("cost_model").begin_object();
    const CostModel model;
    w.kv("alpha", model.alpha).kv("beta", model.beta);
    w.end_object();
    w.key("runs").begin_array();
    for (const Row& row : rows_) {
      w.begin_object();
      w.kv("algo", row.algo);
      w.kv("ranks", row.result.ranks);
      w.kv("ok", row.result.ok);
      if (!row.result.ok) w.kv("error", row.result.error);
      w.kv("norm", row.norm);
      obs::balance_report_json(w, row.result.rep);
      w.kv("modeled_time", row.result.modeled_time);
      if (!row.result.memory.empty()) {
        w.key("memory");
        row.result.memory.to_json(w, row.result.rep.octants_after);
      }
      if (row.result.max_rss_kb >= 0) {
        w.kv("max_rss_kb", row.result.max_rss_kb);
      }
      w.key("metrics");
      row.result.metrics.to_json(w);
      w.key("rounds");
      obs::rounds_json(w, row.result.rounds);
      w.kv("rounds_truncated", row.result.rounds_truncated);
      w.key("critical_path");
      obs::critical_path_json(w, row.result.critical_path);
      if (row.result.flight) {
        w.key("flight");
        obs::flight_log_json(w, row_flight_log(row));
      }
      if (!row.extra_key.empty()) {
        w.key(row.extra_key);
        w.raw(row.extra_json);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Row {
    std::string algo;
    double norm;
    RunResult result;
    std::string extra_key;   ///< "" = no extra section
    std::string extra_json;  ///< pre-rendered value for extra_key
  };

  static obs::FlightLog row_flight_log(const Row& row) {
    return obs::FlightLog{
        row.algo + "/p" + std::to_string(row.result.ranks),
        row.result.ranks, row.result.rounds_truncated, row.result.rounds};
  }

  std::vector<obs::FlightLog> flight_logs() const {
    std::vector<obs::FlightLog> logs;
    for (const Row& row : rows_) {
      if (row.result.flight) logs.push_back(row_flight_log(row));
    }
    return logs;
  }

  std::string bench_;
  std::string json_path_;
  std::string trace_path_;
  std::string flight_path_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Row> rows_;
  bool all_ok_ = true;
};

}  // namespace octbal
