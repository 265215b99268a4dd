/// \file test_inspect.cpp
/// \brief The analysis toolchain's contract: run reports round-trip
/// through obs/json_parse without losing a field, the structured diff
/// accepts identical reports and rejects machine-independent or timing
/// perturbations with the right exit semantics, and the critical-path
/// attribution reconciles exactly with the communicator's modeled time on
/// the Figure 15 workload — for every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "forest/balance.hpp"
#include "harness.hpp"
#include "obs/analysis.hpp"
#include "obs/json_parse.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

using obs::DiffResult;
using obs::JsonValue;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

/// One small Figure 15-style run (fractal brick forest, new algorithm)
/// recorded through the bench harness, returned as the report document.
std::string fig15_report_json(int ranks = 8, int levels = 4) {
  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({3, 2, 1}), p, 2);
    fractal_refine(f, levels);
    f.partition_uniform();
    return f;
  };
  char prog[] = "test_inspect";
  char* argv[] = {prog};
  const Cli cli(1, argv);
  BenchReport report("test_fig15", cli);
  report.add("new", run_balance<3>(build, ranks,
                                   BalanceOptions::new_config()));
  return report.json();
}

JsonValue parse_ok(const std::string& text) {
  JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(text, doc, &err)) << err;
  return doc;
}

// ------------------------------------------------------------ json_parse --

TEST(JsonParse, ValuesEscapesAndErrors) {
  JsonValue v;
  ASSERT_TRUE(obs::json_parse(
      R"({"a":[1,2.5,-3e2],"s":"x\"y\n","t":true,"z":null})", v));
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 3u);
  EXPECT_TRUE(a->arr[0].is_integer());
  EXPECT_EQ(a->arr[0].as_uint(), 1u);
  EXPECT_FALSE(a->arr[1].is_integer());
  EXPECT_DOUBLE_EQ(a->arr[2].num, -300.0);
  EXPECT_EQ(v.string_or("s", ""), "x\"y\n");
  EXPECT_TRUE(v.bool_or("t", false));
  ASSERT_NE(v.find("z"), nullptr);
  EXPECT_TRUE(v.find("z")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);

  std::string err;
  EXPECT_FALSE(obs::json_parse("{\"a\":}", v, &err));
  EXPECT_NE(err.find("at byte"), std::string::npos) << err;
  EXPECT_FALSE(obs::json_parse("[1,2] trailing", v, &err));
  EXPECT_FALSE(obs::json_parse("\"unterminated", v, &err));
}

TEST(JsonParse, TruncatedDocumentsReturnStructuredErrors) {
  // Every truncation point of a well-formed document must produce a
  // structured error (message + byte offset), never an assert or a crash.
  const std::string whole =
      R"({"a":[1,{"b":"cA"},true],"d":-2.5e3,"e":null})";
  JsonValue v;
  std::string err;
  for (std::size_t n = 0; n < whole.size(); ++n) {
    err.clear();
    if (obs::json_parse(whole.substr(0, n), v, &err)) {
      ADD_FAILURE() << "prefix of length " << n << " parsed as complete";
    } else {
      EXPECT_NE(err.find("at byte"), std::string::npos)
          << "prefix " << n << ": " << err;
    }
  }
  EXPECT_TRUE(obs::json_parse(whole, v, &err)) << err;
}

TEST(JsonParse, BadEscapesAreRejected) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::json_parse(R"("bad \q escape")", v, &err));
  EXPECT_NE(err.find("escape"), std::string::npos) << err;
  EXPECT_FALSE(obs::json_parse(R"("bad \u12zz unicode")", v, &err));
  EXPECT_NE(err.find("\\u"), std::string::npos) << err;
  EXPECT_FALSE(obs::json_parse(R"("bad \u12)", v, &err));
  // The escapes the writer emits still round-trip.
  ASSERT_TRUE(obs::json_parse(R"("ok \" \\ \/ \b \f \n \r \t A")", v,
                              &err))
      << err;
  EXPECT_EQ(v.str, "ok \" \\ / \b \f \n \r \t A");
}

TEST(JsonParse, NumericOverflowAndMalformedNumbers) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::json_parse("1e400", v, &err));
  EXPECT_NE(err.find("range"), std::string::npos) << err;
  EXPECT_FALSE(obs::json_parse("-1e400", v, &err));
  EXPECT_FALSE(obs::json_parse("+5", v, &err));
  EXPECT_FALSE(obs::json_parse("[1, 2e]", v, &err));
  EXPECT_NE(err.find("number"), std::string::npos) << err;
  // Large-but-representable values still parse.
  ASSERT_TRUE(obs::json_parse("1e308", v, &err)) << err;
  EXPECT_DOUBLE_EQ(v.num, 1e308);
  ASSERT_TRUE(obs::json_parse("[1.5e+3, -0.25]", v, &err)) << err;
  EXPECT_DOUBLE_EQ(v.arr[0].num, 1500.0);
}

std::string repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

TEST(JsonParse, DeepNestingIsAStructuredError) {
  // The parser recurses once per level, so without a bound a deep enough
  // document overflows the stack.  Past the bound it is an error at the
  // byte of the first container too many; at the bound it still parses.
  constexpr int kHostile = 100000;
  const int bound = obs::kJsonMaxDepth;
  const std::string too_deep =
      "nesting deeper than " + std::to_string(bound) + " at byte ";
  JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::json_parse(
      repeat("[", kHostile) + repeat("]", kHostile), v, &err));
  EXPECT_EQ(err, too_deep + std::to_string(bound));
  EXPECT_FALSE(obs::json_parse(
      repeat(R"({"a":)", kHostile) + "1" + repeat("}", kHostile), v, &err));
  EXPECT_EQ(err, too_deep + std::to_string(5 * bound));
  EXPECT_FALSE(obs::json_parse(
      repeat("[", bound + 1) + repeat("]", bound + 1), v, &err));
  EXPECT_EQ(err, too_deep + std::to_string(bound));

  ASSERT_TRUE(obs::json_parse(repeat("[", bound) + repeat("]", bound), v,
                              &err))
      << err;
  int depth = 1;
  for (const JsonValue* p = &v; !p->arr.empty(); p = &p->arr[0]) ++depth;
  EXPECT_EQ(depth, bound);
  ASSERT_TRUE(obs::json_parse(
      repeat(R"({"a":)", bound) + "1" + repeat("}", bound), v, &err))
      << err;
}

// ----------------------------------------------------- golden round-trip --

TEST(Inspect, ReportRoundTripsThroughParser) {
  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), p, 2);
    fractal_refine(f, 4);
    f.partition_uniform();
    return f;
  };
  const RunResult r = run_balance<3>(build, 6, BalanceOptions::new_config());
  char prog[] = "test_inspect";
  char* argv[] = {prog};
  const Cli cli(1, argv);
  BenchReport report("roundtrip", cli);
  report.add("new", r);
  const JsonValue doc = parse_ok(report.json());

  EXPECT_EQ(doc.string_or("schema", ""), "octbal-bench-report-v3");
  EXPECT_EQ(doc.string_or("bench", ""), "roundtrip");
  EXPECT_TRUE(doc.bool_or("ok", false));
  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->arr.size(), 1u);
  const JsonValue& run = runs->arr[0];

  // Scalars survive exactly.
  EXPECT_EQ(run.string_or("algo", ""), "new");
  EXPECT_EQ(run.uint_or("ranks", 0), 6u);
  EXPECT_EQ(run.uint_or("octants_before", 0), r.rep.octants_before);
  EXPECT_EQ(run.uint_or("octants_after", 0), r.rep.octants_after);
  EXPECT_EQ(run.uint_or("queries_sent", 0), r.rep.queries_sent);
  EXPECT_EQ(run.uint_or("response_items", 0), r.rep.response_items);
  EXPECT_EQ(run.uint_or("rounds_truncated", 0), r.rounds_truncated);
  EXPECT_DOUBLE_EQ(run.number_or("modeled_time", -1), r.modeled_time);
  const JsonValue* comm = run.find("comm");
  ASSERT_NE(comm, nullptr);
  EXPECT_EQ(comm->uint_or("messages", 0), r.rep.comm.messages);
  EXPECT_EQ(comm->uint_or("bytes", 0), r.rep.comm.bytes);

  // The satellite counters are in the document.
  const JsonValue* owner = run.find("owner_scan");
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->uint_or("lookups", 1), r.rep.owner_scan.lookups);
  EXPECT_EQ(owner->uint_or("comparisons", 1), r.rep.owner_scan.comparisons);
  const JsonValue* subtree = run.find("subtree");
  ASSERT_NE(subtree, nullptr);
  EXPECT_EQ(subtree->uint_or("hash_rehash_probes", 1),
            r.rep.subtree.hash_rehash_probes);

  // Metrics counters match the snapshot slot for slot.
  const JsonValue* counters = run.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, slots] : r.metrics.counters) {
    const JsonValue* c = counters->find(name);
    ASSERT_NE(c, nullptr) << name;
    std::uint64_t total = 0;
    for (const std::uint64_t s : slots) total += s;
    EXPECT_EQ(c->uint_or("total", total + 1), total) << name;
    if (slots.size() > 1) {
      const JsonValue* per = c->find("per_rank");
      ASSERT_NE(per, nullptr) << name;
      ASSERT_EQ(per->arr.size(), slots.size()) << name;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        EXPECT_EQ(per->arr[i].as_uint(), slots[i]) << name << "[" << i << "]";
      }
    }
  }

  // Round matrices survive edge for edge.
  const JsonValue* rounds = run.find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_EQ(rounds->arr.size(), r.rounds.size());
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const JsonValue* edges = rounds->arr[i].find("edges");
    ASSERT_NE(edges, nullptr);
    ASSERT_EQ(edges->arr.size(), r.rounds[i].edges.size());
    for (std::size_t j = 0; j < r.rounds[i].edges.size(); ++j) {
      const auto& e = r.rounds[i].edges[j];
      const auto& je = edges->arr[j].arr;
      ASSERT_EQ(je.size(), 4u);
      EXPECT_EQ(static_cast<int>(je[0].num), e.from);
      EXPECT_EQ(static_cast<int>(je[1].num), e.to);
      EXPECT_EQ(je[2].as_uint(), e.messages);
      EXPECT_EQ(je[3].as_uint(), e.bytes);
    }
  }

  // Critical-path phases survive, including the bounding-rank histogram.
  const JsonValue* cp = run.find("critical_path");
  ASSERT_NE(cp, nullptr);
  ASSERT_EQ(cp->arr.size(), r.critical_path.size());
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    const auto& ph = r.critical_path[i];
    const JsonValue& jp = cp->arr[i];
    EXPECT_EQ(jp.string_or("phase", ""), ph.name);
    EXPECT_EQ(jp.uint_or("rounds", ph.rounds + 1), ph.rounds);
    EXPECT_EQ(jp.uint_or("collectives", ph.collectives + 1), ph.collectives);
    EXPECT_DOUBLE_EQ(jp.number_or("time", -1), ph.time);
    EXPECT_DOUBLE_EQ(jp.number_or("slack", -1), ph.slack);
    const JsonValue* hist = jp.find("critical_by_rank");
    ASSERT_NE(hist, nullptr);
    for (std::size_t rk = 0; rk < ph.critical_by_rank.size(); ++rk) {
      EXPECT_EQ(hist->uint_or(std::to_string(rk), 0),
                ph.critical_by_rank[rk]);
    }
  }

  // A report diffed against itself is clean, with and without timing.
  for (const double tol : {-1.0, 0.0}) {
    DiffResult d;
    std::string err;
    ASSERT_TRUE(obs::diff_reports(doc, doc, tol, d, &err)) << err;
    EXPECT_TRUE(d.ok()) << obs::render_diff(d, tol);
    EXPECT_GT(d.exact_checked, 100u);
  }
}

// -------------------------------------------------------- diff semantics --

TEST(Inspect, DiffCatchesMachineIndependentPerturbation) {
  const JsonValue base = parse_ok(fig15_report_json());
  JsonValue fresh = base;
  // Modeled bytes +1: a machine-independent field, so the diff must fail
  // even with timing comparisons off (the CI configuration).
  JsonValue& bytes = fresh.obj["runs"].arr[0].obj["comm"].obj["bytes"];
  ASSERT_TRUE(bytes.is_number());
  bytes.num += 1;
  DiffResult d;
  std::string err;
  ASSERT_TRUE(obs::diff_reports(base, fresh, -1.0, d, &err)) << err;
  ASSERT_FALSE(d.ok());
  bool found = false;
  for (const auto& m : d.mismatches) {
    found = found || m.path == "runs[0].comm.bytes";
    EXPECT_FALSE(m.timing);
  }
  EXPECT_TRUE(found) << obs::render_diff(d, -1.0);
}

TEST(Inspect, DiffCatchesCounterAndHistogramPerturbation) {
  const JsonValue base = parse_ok(fig15_report_json());
  JsonValue fresh = base;
  JsonValue& counters = fresh.obj["runs"].arr[0].obj["metrics"].obj["counters"];
  ASSERT_TRUE(counters.obj.count("comm/msgs_sent"));
  counters.obj["comm/msgs_sent"].obj["total"].num += 1;
  JsonValue& cp = fresh.obj["runs"].arr[0].obj["critical_path"];
  ASSERT_FALSE(cp.arr.empty());
  cp.arr[0].obj["rounds"].num += 1;
  DiffResult d;
  std::string err;
  ASSERT_TRUE(obs::diff_reports(base, fresh, -1.0, d, &err)) << err;
  std::vector<std::string> paths;
  for (const auto& m : d.mismatches) paths.push_back(m.path);
  EXPECT_EQ(d.mismatches.size(), 2u) << obs::render_diff(d, -1.0);
  EXPECT_NE(std::find(paths.begin(), paths.end(),
                      "runs[0].metrics.counters.comm/msgs_sent.total"),
            paths.end());
  EXPECT_NE(std::find(paths.begin(), paths.end(),
                      "runs[0].critical_path[0].rounds"),
            paths.end());
}

TEST(Inspect, RepartitionSectionRoundTripsAndDiffs) {
  // bench_repartition's per-run extra section: the convergence counters
  // are exact goldens (flagged with timing comparisons off, the CI
  // configuration), the slack trajectory is modeled time behind the tol
  // gate.
  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), p, 2);
    fractal_refine(f, 4);
    f.partition_uniform();
    return f;
  };
  const RunResult r = run_balance<3>(build, 6, BalanceOptions::new_config());
  char prog[] = "test_inspect";
  char* argv[] = {prog};
  const Cli cli(1, argv);
  BenchReport report("bench_repartition", cli);
  report.add("fig15/weighted", r, 1.0, "repartition",
             "{\"mode\": \"weighted\", \"rounds\": 4,"
             " \"rounds_to_converge\": 1, \"octants_moved\": 42,"
             " \"migration_messages\": 6, \"migration_bytes\": 840,"
             " \"max_marker_shift\": 16, \"reverted_rounds\": 0,"
             " \"slack_trajectory\": [4.0, 3.0, 2.0, 2.0],"
             " \"slack_reduction\": 0.5}");
  const JsonValue base = parse_ok(report.json());
  const JsonValue* sec = base.find("runs")->arr[0].find("repartition");
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->uint_or("octants_moved", 0), 42u);
  EXPECT_EQ(sec->string_or("mode", ""), "weighted");

  {  // self-diff is clean and covers the section's exact keys
    DiffResult d;
    std::string err;
    ASSERT_TRUE(obs::diff_reports(base, base, -1.0, d, &err)) << err;
    EXPECT_TRUE(d.ok()) << obs::render_diff(d, -1.0);
  }
  {  // a migration-counter drift is machine-independent: caught without tol
    JsonValue fresh = base;
    fresh.obj["runs"].arr[0].obj["repartition"].obj["octants_moved"].num += 1;
    DiffResult d;
    std::string err;
    ASSERT_TRUE(obs::diff_reports(base, fresh, -1.0, d, &err)) << err;
    ASSERT_FALSE(d.ok());
    bool found = false;
    for (const auto& m : d.mismatches) {
      found = found || m.path == "runs[0].repartition.octants_moved";
    }
    EXPECT_TRUE(found) << obs::render_diff(d, -1.0);
  }
  {  // a trajectory drift is modeled time: silent without tol, gated with
    JsonValue fresh = base;
    fresh.obj["runs"].arr[0].obj["repartition"].obj["slack_trajectory"]
        .arr[1].num *= 2.0;
    DiffResult d;
    std::string err;
    ASSERT_TRUE(obs::diff_reports(base, fresh, -1.0, d, &err)) << err;
    EXPECT_TRUE(d.ok()) << obs::render_diff(d, -1.0);
    DiffResult dt;
    ASSERT_TRUE(obs::diff_reports(base, fresh, 0.05, dt, &err)) << err;
    ASSERT_FALSE(dt.ok());
    bool found = false;
    for (const auto& m : dt.mismatches) {
      found = found || m.path == "runs[0].repartition.slack_trajectory[1]";
      EXPECT_TRUE(m.timing);
    }
    EXPECT_TRUE(found) << obs::render_diff(dt, 0.05);
  }
}

TEST(Inspect, DiffTimingIsToleranceGated) {
  const JsonValue base = parse_ok(fig15_report_json());
  JsonValue fresh = base;
  // Plant a 2x drift in a timing field, large enough to clear the 1e-4 s
  // jitter floor on both sides.
  JsonValue& phases = fresh.obj["runs"].arr[0].obj["phases"];
  JsonValue& base_phases =
      const_cast<JsonValue&>(base).obj["runs"].arr[0].obj["phases"];
  base_phases.obj["total"].num = 1.0;
  phases.obj["total"].num = 2.0;

  // Timing off (CI default): drift invisible.
  DiffResult off;
  std::string err;
  ASSERT_TRUE(obs::diff_reports(base, fresh, -1.0, off, &err)) << err;
  EXPECT_TRUE(off.ok()) << obs::render_diff(off, -1.0);
  EXPECT_GT(off.timing_skipped, 0u);

  // Tight tolerance: caught, and flagged as a timing mismatch.
  DiffResult tight;
  ASSERT_TRUE(obs::diff_reports(base, fresh, 0.1, tight, &err)) << err;
  ASSERT_FALSE(tight.ok());
  bool found = false;
  for (const auto& m : tight.mismatches) {
    if (m.path == "runs[0].phases.total") {
      found = true;
      EXPECT_TRUE(m.timing);
    }
  }
  EXPECT_TRUE(found) << obs::render_diff(tight, 0.1);

  // Loose tolerance: a 2x drift is within 60%... no — 2x is 50% relative;
  // a 0.9 tolerance accepts it.
  DiffResult loose;
  ASSERT_TRUE(obs::diff_reports(base, fresh, 0.9, loose, &err)) << err;
  EXPECT_TRUE(loose.ok()) << obs::render_diff(loose, 0.9);
}

TEST(Inspect, DiffClassifiesEveryField) {
  // One planted change per rule class of the diff's table, on a fig15
  // report given churn and repartition sections so every section's
  // timing paths exist on both sides.
  JsonValue base = parse_ok(fig15_report_json());
  JsonValue& brun = base.obj["runs"].arr[0];
  brun.obj["churn"] = parse_ok(
      R"({"identical_all": true, "steady_min_reduction": 0.5,
          "steady_mean_reduction": 0.5,
          "steps": [{"step": 1, "octants": 64, "modeled_full": 1.0,
                     "modeled_delta": 0.5, "reduction": 0.5}]})");
  brun.obj["repartition"] = parse_ok(
      R"({"octants_moved": 3, "slack_trajectory": [1.0, 2.0],
          "slack_reduction": 0.5})");
  brun.obj["critical_path"].arr[0].obj["time"].num = 1.0;
  ASSERT_TRUE(brun.find("max_rss_kb") && base.find("threads"));
  JsonValue& bhists = brun.obj["metrics"].obj["histograms"];
  ASSERT_FALSE(bhists.obj.empty());
  const std::string hist = bhists.obj.begin()->first;
  // A bucket present as 0 on one side only is the same histogram.
  bhists.obj[hist].obj["log2_buckets"].obj["60"] = parse_ok("0");

  JsonValue fresh = base;
  JsonValue& run = fresh.obj["runs"].arr[0];
  // Exact: derived per-rank reductions, and a bucket present on one side.
  run.obj["metrics"].obj["counters"].obj["comm/msgs_sent"].obj["median"]
      .num += 1;
  JsonValue& h = run.obj["metrics"].obj["histograms"].obj[hist];
  h.obj["p90"].num += 1;
  h.obj["log2_buckets"].obj.erase("60");
  h.obj["log2_buckets"].obj["61"] = parse_ok("1");
  // Timing fields, one per section, doubled.
  run.obj["critical_path"].arr[0].obj["time"].num = 2.0;
  run.obj["churn"].obj["steps"].arr[0].obj["modeled_full"].num = 2.0;
  run.obj["repartition"].obj["slack_trajectory"].arr[0].num = 2.0;
  // Skipped keys.
  fresh.obj["schema"] = parse_ok(R"("octbal-bench-report-v9")");
  fresh.obj["threads"].num += 3;
  run.obj["max_rss_kb"].num += 1000;
  // One-sided fields.
  run.obj["added_in_v9"] = parse_ok("7");
  fresh.obj["added_section"] = parse_ok(R"({"x": [1, 2]})");
  brun.obj["dropped_in_v9"] = parse_ok("8");

  const auto diff = [&](const JsonValue& b, const JsonValue& f, double tol) {
    DiffResult d;
    std::string err;
    EXPECT_TRUE(obs::diff_reports(b, f, tol, d, &err)) << err;
    std::set<std::string> exact, timing;
    for (const auto& m : d.mismatches) {
      (m.timing ? timing : exact).insert(m.path);
    }
    return std::make_pair(exact, timing);
  };
  const std::string h_path = "runs[0].metrics.histograms." + hist;
  const std::set<std::string> want_exact = {
      "runs[0].metrics.counters.comm/msgs_sent.median", h_path + ".p90",
      h_path + ".log2_buckets.61"};
  const std::set<std::string> want_timing = {
      "runs[0].critical_path[0].time", "runs[0].churn.steps[0].modeled_full",
      "runs[0].repartition.slack_trajectory[0]"};
  const auto [exact_off, timing_off] = diff(base, fresh, -1.0);
  EXPECT_EQ(exact_off, want_exact);
  EXPECT_TRUE(timing_off.empty());
  const auto [exact_on, timing_on] = diff(base, fresh, 0.1);
  EXPECT_EQ(exact_on, want_exact);
  EXPECT_EQ(timing_on, want_timing);

  // A run paired against a different algorithm reports only its identity,
  // not the field drift that follows from comparing unrelated runs.
  JsonValue other = base;
  other.obj["runs"].arr[0].obj["algo"] = parse_ok(R"("old")");
  other.obj["runs"].arr[0].obj["comm"].obj["bytes"].num += 1;
  const auto [exact_id, timing_id] = diff(base, other, 0.1);
  EXPECT_EQ(exact_id, std::set<std::string>{"runs[0].algo"});
  EXPECT_TRUE(timing_id.empty());
}

TEST(Inspect, DiffResolvesBaselineWrapperAndBenchmarkNames) {
  const std::string report = fig15_report_json();
  const JsonValue fresh = parse_ok(report);
  const JsonValue wrapped = parse_ok(
      std::string("{\"schema\":\"octbal-bench-baseline-v1\",\"fig15_weak\":") +
      report + "}");
  std::string err;
  ASSERT_NE(obs::bench_report_section(wrapped, &err), nullptr) << err;
  DiffResult d;
  ASSERT_TRUE(obs::diff_reports(wrapped, fresh, -1.0, d, &err)) << err;
  EXPECT_TRUE(d.ok()) << obs::render_diff(d, -1.0);

  // Google-benchmark documents compare by ordered name list.
  const JsonValue gb_base = parse_ok(
      R"({"benchmarks":[{"name":"BM_a"},{"name":"BM_b"}]})");
  const JsonValue gb_same = parse_ok(
      R"({"benchmarks":[{"name":"BM_a"},{"name":"BM_b"}]})");
  const JsonValue gb_renamed = parse_ok(
      R"({"benchmarks":[{"name":"BM_a"},{"name":"BM_c"}]})");
  DiffResult same, renamed;
  ASSERT_TRUE(obs::diff_reports(gb_base, gb_same, -1.0, same, &err)) << err;
  EXPECT_TRUE(same.ok());
  ASSERT_TRUE(obs::diff_reports(gb_base, gb_renamed, -1.0, renamed, &err));
  ASSERT_EQ(renamed.mismatches.size(), 1u);
  EXPECT_EQ(renamed.mismatches[0].path, "benchmarks[1].name");

  // Unpairable inputs are an error, not a silent pass.
  const JsonValue junk = parse_ok(R"({"hello":"world"})");
  DiffResult d2;
  EXPECT_FALSE(obs::diff_reports(junk, fresh, -1.0, d2, &err));
  EXPECT_FALSE(err.empty());
}

// ------------------------------------------------- critical-path physics --

TEST(Inspect, CriticalPathReconcilesWithModeledTime) {
  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({3, 2, 1}), p, 2);
    fractal_refine(f, 5);
    f.partition_uniform();
    return f;
  };
  constexpr int kRanks = 16;
  Forest<3> f = build(kRanks);
  SimComm comm(kRanks);
  balance(f, BalanceOptions::new_config(), comm);

  const auto& phases = comm.critical_path();
  ASSERT_FALSE(phases.empty());
  double sum = 0, mean_sum = 0;
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> bounded(kRanks, 0);
  std::set<std::string> names;
  for (const auto& ph : phases) {
    names.insert(ph.name);
    EXPECT_GE(ph.time, ph.mean_time) << ph.name;  // max >= mean, always
    EXPECT_GE(ph.slack, 0.0) << ph.name;
    sum += ph.time;
    mean_sum += ph.mean_time;
    rounds += ph.rounds;
    ASSERT_EQ(ph.critical_by_rank.size(), static_cast<std::size_t>(kRanks));
    std::uint64_t hist_total = 0;
    for (std::size_t r = 0; r < bounded.size(); ++r) {
      bounded[r] += ph.critical_by_rank[r];
      hist_total += ph.critical_by_rank[r];
    }
    // Every nonempty round has exactly one bounding rank.
    EXPECT_LE(hist_total, ph.rounds) << ph.name;
  }
  // The profiler's phases partition the whole run: their times sum to the
  // communicator's modeled time (same additions, same order => exact).
  EXPECT_DOUBLE_EQ(sum, comm.modeled_time());
  EXPECT_LE(mean_sum, sum);
  // Every deliver() barrier is attributed to exactly one phase.
  EXPECT_EQ(rounds, comm.rounds().size() + comm.rounds_truncated());
  // The pipeline's phase labels all made it into the attribution.
  EXPECT_TRUE(names.count("balance/notify")) << "phases missing notify";
  EXPECT_TRUE(names.count("balance/queries"));
  EXPECT_TRUE(names.count("balance/response"));
  // The counter mirror agrees with the histogram.
  const obs::Snapshot snap = comm.metrics().snapshot();
  ASSERT_TRUE(snap.counters.count("comm/critical_rounds"));
  EXPECT_EQ(snap.counters.at("comm/critical_rounds"), bounded);

  // And the emitted report reconciles the same way after a parse.
  char prog[] = "test_inspect";
  char* argv[] = {prog};
  const Cli cli(1, argv);
  BenchReport report("critpath", cli);
  report.add("new", run_balance<3>(build, kRanks,
                                   BalanceOptions::new_config()));
  const JsonValue doc = parse_ok(report.json());
  const JsonValue& run = doc.find("runs")->arr[0];
  double json_sum = 0;
  for (const auto& ph : run.find("critical_path")->arr) {
    json_sum += ph.number_or("time", 0);
  }
  EXPECT_NEAR(json_sum, run.number_or("modeled_time", -1),
              1e-12 * std::max(1.0, json_sum));
  std::string err;
  const std::string text = obs::render_critical_path(doc, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_NE(text.find("balance/notify"), std::string::npos) << text;
}

TEST(Inspect, CriticalPathIsByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto run = [](int threads) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({2, 2, 1}), 6, 1);
    fractal_refine(f, 4);
    f.partition_uniform();
    SimComm comm(6);
    balance(f, BalanceOptions::new_config(), comm);
    // Canonical byte form: phase names, integer counts, and the exact bits
    // of every double (critical-path values must not wobble with threads).
    std::string s;
    for (const auto& ph : comm.critical_path()) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s %llu %llu %.17g %.17g %.17g|",
                    ph.name.c_str(),
                    static_cast<unsigned long long>(ph.rounds),
                    static_cast<unsigned long long>(ph.collectives), ph.time,
                    ph.mean_time, ph.slack);
      s += buf;
      for (const std::uint64_t c : ph.critical_by_rank) {
        s += std::to_string(c) + ",";
      }
      s += "\n";
    }
    return s;
  };
  const std::string ref = run(1);
  EXPECT_FALSE(ref.empty());
  for (const int threads : {4, 8}) {
    EXPECT_EQ(run(threads), ref) << "threads=" << threads;
  }
}

// ------------------------------------------------------ round record cap --

TEST(Inspect, RoundRecordCapTruncatesButKeepsAttribution) {
  const auto run = [](std::size_t limit, std::vector<SimComm::PhaseCost>* cp,
                      std::uint64_t* truncated) {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 8, 1);
    fractal_refine(f, 4);
    f.partition_uniform();
    SimComm comm(8);
    comm.set_round_record_limit(limit);
    balance(f, BalanceOptions::new_config(), comm);
    if (cp) *cp = comm.critical_path();
    if (truncated) *truncated = comm.rounds_truncated();
    return comm.rounds().size();
  };
  std::vector<SimComm::PhaseCost> cp_full, cp_capped;
  std::uint64_t trunc_full = 0, trunc_capped = 0;
  const std::size_t full = run(1 << 20, &cp_full, &trunc_full);
  const std::size_t capped = run(1, &cp_capped, &trunc_capped);
  EXPECT_EQ(trunc_full, 0u);
  ASSERT_GT(full, 0u);
  EXPECT_LT(capped, full);
  EXPECT_EQ(trunc_capped + capped, full);
  // The cap only affects what is *recorded*; the attribution is identical.
  ASSERT_EQ(cp_capped.size(), cp_full.size());
  for (std::size_t i = 0; i < cp_full.size(); ++i) {
    EXPECT_EQ(cp_capped[i].name, cp_full[i].name);
    EXPECT_EQ(cp_capped[i].rounds, cp_full[i].rounds);
    EXPECT_EQ(cp_capped[i].time, cp_full[i].time);
  }
}

// ------------------------------------------------------------ flight logs --

TEST(Inspect, BenchReportEmbedsAndParsesFlightLogs) {
  // With the process-wide flight default on (what --flight sets), the
  // harness's internally constructed communicators record, the report
  // grows a per-run "flight" member, and parse_flight finds it with the
  // algo/pN fallback label.
  SimComm::set_flight_default(true);
  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), p, 2);
    fractal_refine(f, 3);
    f.partition_uniform();
    return f;
  };
  const RunResult r = run_balance<3>(build, 4, BalanceOptions::new_config());
  SimComm::set_flight_default(false);
  ASSERT_TRUE(r.flight);
  ASSERT_FALSE(r.rounds.empty());
  char prog[] = "test_inspect";
  char* argv[] = {prog};
  const Cli cli(1, argv);
  BenchReport report("flight_embed", cli);
  report.add("new", r);
  const JsonValue doc = parse_ok(report.json());

  std::vector<obs::FlightLog> logs;
  std::string err;
  ASSERT_TRUE(obs::parse_flight(doc, &logs, &err)) << err;
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].label, "new/p4");
  EXPECT_EQ(logs[0].ranks, 4);
  EXPECT_EQ(logs[0].rounds.size(), r.rounds.size());
  const std::string rendered = obs::render_flight(logs);
  EXPECT_NE(rendered.find("new/p4"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("top edges"), std::string::npos) << rendered;

  // A report with no flight members is a structured parse error, not a
  // crash or an empty success.
  SimComm::set_flight_default(false);
  const RunResult bare = run_balance<3>(build, 4,
                                        BalanceOptions::new_config());
  BenchReport bare_report("no_flight", cli);
  bare_report.add("new", bare);
  logs.clear();
  EXPECT_FALSE(obs::parse_flight(parse_ok(bare_report.json()), &logs, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Inspect, BisectPairsEveryLogAndCatchesALaterOne) {
  // Two documents of two runs each, identical but for one edge's byte
  // count in the second run: pairing by index must bisect both pairs and
  // find the divergence in the second, not stop at the first.
  SimComm::set_flight_default(true);
  const auto build = [&](int p) {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), p, 2);
    fractal_refine(f, 3);
    f.partition_uniform();
    return f;
  };
  char prog[] = "test_inspect";
  char* argv[] = {prog};
  const Cli cli(1, argv);
  BenchReport report("flight_pairs", cli);
  report.add("old", run_balance<3>(build, 4, BalanceOptions::old_config()));
  report.add("new", run_balance<3>(build, 4, BalanceOptions::new_config()));
  SimComm::set_flight_default(false);
  std::vector<obs::FlightLog> a, b;
  std::string err;
  ASSERT_TRUE(obs::parse_flight(parse_ok(report.json()), &a, &err)) << err;
  ASSERT_EQ(a.size(), 2u);
  b = a;
  const auto edged = std::find_if(
      b[1].rounds.begin(), b[1].rounds.end(),
      [](const SimComm::Round& r) { return !r.edges.empty(); });
  ASSERT_NE(edged, b[1].rounds.end());
  edged->edges[0].bytes += 1;

  std::vector<obs::FlightDivergence> verdicts;
  ASSERT_TRUE(obs::flight_bisect_pairs(a, a, &verdicts, &err)) << err;
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts[0].diverged || verdicts[1].diverged);

  ASSERT_TRUE(obs::flight_bisect_pairs(a, b, &verdicts, &err)) << err;
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts[0].diverged);
  ASSERT_TRUE(verdicts[1].diverged);
  EXPECT_EQ(verdicts[1].round, edged - b[1].rounds.begin());
  EXPECT_EQ(verdicts[1].edges_differing, 1u);

  // Unpairable documents: a different log count or label is an error.
  b.pop_back();
  EXPECT_FALSE(obs::flight_bisect_pairs(a, b, &verdicts, &err));
  EXPECT_NE(err.find("log count"), std::string::npos) << err;
  b = a;
  b[1].label = "other";
  EXPECT_FALSE(obs::flight_bisect_pairs(a, b, &verdicts, &err));
  EXPECT_NE(err.find("label"), std::string::npos) << err;
}

// -------------------------------------------------------------- renderers --

TEST(Inspect, RenderersAndTopTalkers) {
  const JsonValue doc = parse_ok(fig15_report_json());
  std::string err;
  const std::string rep = obs::render_report(doc, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_NE(rep.find("octbal-bench-report-v3"), std::string::npos) << rep;
  EXPECT_NE(rep.find("top talkers"), std::string::npos) << rep;

  const JsonValue& run = doc.find("runs")->arr[0];
  const auto talkers = obs::top_talkers(run, 3);
  ASSERT_FALSE(talkers.empty());
  EXPECT_LE(talkers.size(), 3u);
  for (std::size_t i = 1; i < talkers.size(); ++i) {
    EXPECT_GE(talkers[i - 1].bytes, talkers[i].bytes);
  }

  // The diff renderers don't crash on a populated result and carry the
  // verdict in machine-readable form.
  JsonValue fresh = doc;
  fresh.obj["runs"].arr[0].obj["queries_sent"].num += 1;
  DiffResult d;
  ASSERT_TRUE(obs::diff_reports(doc, fresh, -1.0, d, &err)) << err;
  ASSERT_FALSE(d.ok());
  const JsonValue verdict = parse_ok(obs::diff_json(d, -1.0));
  EXPECT_FALSE(verdict.bool_or("ok", true));
  EXPECT_EQ(verdict.find("mismatches")->arr.size(), d.mismatches.size());
  EXPECT_NE(obs::render_diff(d, -1.0).find("runs[0].queries_sent"),
            std::string::npos);
}

}  // namespace
}  // namespace octbal
