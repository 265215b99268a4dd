#include "obs/analysis.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "obs/json.hpp"

namespace octbal::obs {
namespace {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string render_value(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kString: return v.str;
    case JsonValue::Kind::kNumber:
      if (v.is_integer()) {
        return fmt("%lld", static_cast<long long>(v.num));
      }
      return fmt("%.17g", v.num);
    default: return "<composite>";
  }
}

bool is_bench_report(const JsonValue& v) {
  return v.is_object() &&
         v.string_or("schema", "").rfind("octbal-bench-report-", 0) == 0;
}

/// How the diff treats one field.
enum class Rule : std::uint8_t { kExact, kSkip, kTiming, kSparse };

/// The diff's whole contract, keyed by index-normalised path
/// ("runs[3].phases.total" is looked up as "runs[].phases.total"; `*`
/// matches any run of characters).  Every scalar the two reports share and
/// no pattern names is machine-independent and compared exactly.
constexpr struct {
  const char* pattern;
  Rule rule;
} kRules[] = {
    // Environment, not results: the schema tag, the pool size, and the
    // whole-process, allocator-dependent RSS.
    {"schema", Rule::kSkip},
    {"threads", Rule::kSkip},
    {"runs[].max_rss_kb", Rule::kSkip},
    // Wall-clock and modeled seconds, and the ratios derived from them.
    {"runs[].phases.*", Rule::kTiming},
    {"runs[].modeled_time", Rule::kTiming},
    {"runs[].critical_path[].time", Rule::kTiming},
    {"runs[].critical_path[].mean_time", Rule::kTiming},
    {"runs[].critical_path[].slack", Rule::kTiming},
    {"runs[].repartition.slack_trajectory[]", Rule::kTiming},
    {"runs[].repartition.slack_reduction", Rule::kTiming},
    {"runs[].churn.steady_min_reduction", Rule::kTiming},
    {"runs[].churn.steady_mean_reduction", Rule::kTiming},
    {"runs[].churn.steps[].modeled_full", Rule::kTiming},
    {"runs[].churn.steps[].modeled_delta", Rule::kTiming},
    {"runs[].churn.steps[].reduction", Rule::kTiming},
    // Sparse histograms: a bucket or rank missing on one side counts as 0.
    {"runs[].metrics.histograms.*.log2_buckets", Rule::kSparse},
    {"runs[].critical_path[].critical_by_rank", Rule::kSparse},
};

bool glob_match(const char* p, const char* s) {
  if (*p == '*') return glob_match(p + 1, s) || (*s && glob_match(p, s + 1));
  if (*p == '\0') return *s == '\0';
  return *p == *s && glob_match(p + 1, s + 1);
}

Rule rule_for(const std::string& norm) {
  for (const auto& r : kRules) {
    if (glob_match(r.pattern, norm.c_str())) return r.rule;
  }
  return Rule::kExact;
}

std::string join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

/// Walks both trees field by field, recording mismatches: the keys both
/// objects share (a one-sided key is schema evolution and is ignored),
/// array lengths then elements, and each scalar under its kRules rule.
class Differ {
 public:
  Differ(DiffResult& out, double tol) : out_(out), tol_(tol) {}

  /// \p path is the displayed path ("runs[2].comm.bytes"), \p norm the
  /// same path with every index dropped ("runs[].comm.bytes").
  void walk(const std::string& path, const std::string& norm,
            const JsonValue& a, const JsonValue& b) {
    const Rule rule = rule_for(norm);
    if (rule == Rule::kSkip) return;
    if (a.is_object() && b.is_object()) {
      if (rule == Rule::kSparse) {
        sparse(path, a, b);
        return;
      }
      // Identity first: a run-pairing mismatch makes field diffs
      // meaningless, so only the identity itself is reported.
      const bool unpaired =
          norm == "runs[]" &&
          (a.string_or("algo", "") != b.string_or("algo", "") ||
           a.uint_or("ranks", 0) != b.uint_or("ranks", 0));
      for (const auto& [key, av] : a.obj) {
        if (unpaired && key != "algo" && key != "ranks") continue;
        if (const JsonValue* bv = b.find(key)) {
          walk(join(path, key), join(norm, key), av, *bv);
        }
      }
    } else if (a.is_array() && b.is_array()) {
      if (a.arr.size() != b.arr.size()) {
        out_.exact_checked += 1;
        out_.mismatches.push_back({path + ".length",
                                   std::to_string(a.arr.size()),
                                   std::to_string(b.arr.size()), false});
        return;
      }
      for (std::size_t i = 0; i < a.arr.size(); ++i) {
        walk(path + "[" + std::to_string(i) + "]", norm + "[]", a.arr[i],
             b.arr[i]);
      }
    } else if (rule == Rule::kTiming) {
      timing(path, a, b);
    } else {
      exact(path, a, b);
    }
  }

 private:
  void exact(const std::string& path, const JsonValue& a,
             const JsonValue& b) {
    out_.exact_checked += 1;
    const bool same = a.kind == b.kind &&
                      (!a.is_number() || a.num == b.num) &&
                      (!a.is_string() || a.str == b.str) &&
                      (!a.is_bool() || a.boolean == b.boolean);
    if (!same) {
      out_.mismatches.push_back({path, render_value(a), render_value(b),
                                 false});
    }
  }

  /// Union-of-keys compare where a missing member means 0.
  void sparse(const std::string& path, const JsonValue& a,
              const JsonValue& b) {
    std::set<std::string> keys;
    for (const auto& [k, v] : a.obj) keys.insert(k);
    for (const auto& [k, v] : b.obj) keys.insert(k);
    for (const std::string& k : keys) {
      const JsonValue* av = a.find(k);
      const JsonValue* bv = b.find(k);
      out_.exact_checked += 1;
      const double x = av ? av->num : 0.0;
      const double y = bv ? bv->num : 0.0;
      if (x != y) {
        out_.mismatches.push_back({path + "." + k, fmt("%.17g", x),
                                   fmt("%.17g", y), false});
      }
    }
  }

  void timing(const std::string& path, const JsonValue& a,
              const JsonValue& b) {
    if (!a.is_number() || !b.is_number()) return;
    if (tol_ < 0) {
      out_.timing_skipped += 1;
      return;
    }
    const double x = a.num, y = b.num;
    // Sub-0.1ms readings are dominated by scheduler jitter; comparing them
    // under any sane tolerance only produces noise.
    if (std::abs(x) < 1e-4 && std::abs(y) < 1e-4) {
      out_.timing_skipped += 1;
      return;
    }
    out_.timing_checked += 1;
    const double rel =
        std::abs(x - y) / std::max(std::abs(x), std::abs(y));
    if (rel > tol_) {
      out_.mismatches.push_back(
          {path, fmt("%.6g", x), fmt("%.6g", y), true});
    }
  }

  DiffResult& out_;
  double tol_;
};

/// (from, to) edge sums, keyed so each edge is summed once.
using EdgeTally = std::map<std::pair<int, int>, CommEdge>;

void tally_edge(EdgeTally& agg, int from, int to, std::uint64_t messages,
                std::uint64_t bytes) {
  CommEdge& e = agg[{from, to}];
  e.from = from;
  e.to = to;
  e.messages += messages;
  e.bytes += bytes;
}

/// The \p n heaviest edges of \p agg: by bytes, then messages, then
/// (from, to).
std::vector<CommEdge> heaviest_edges(const EdgeTally& agg, std::size_t n) {
  std::vector<CommEdge> edges;
  edges.reserve(agg.size());
  for (const auto& [key, e] : agg) edges.push_back(e);
  std::sort(edges.begin(), edges.end(),
            [](const CommEdge& a, const CommEdge& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              if (a.messages != b.messages) return a.messages > b.messages;
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });
  if (edges.size() > n) edges.resize(n);
  return edges;
}

}  // namespace

const JsonValue* bench_report_section(const JsonValue& doc, std::string* err,
                                      const std::string& bench) {
  if (is_bench_report(doc)) return &doc;
  const JsonValue* first = nullptr;
  if (doc.is_object()) {
    for (const auto& [key, v] : doc.obj) {
      if (!is_bench_report(v)) continue;
      if (!bench.empty() && v.string_or("bench", "") == bench) return &v;
      if (!first) first = &v;
    }
  }
  if (first) return first;
  if (err) {
    *err = "document is neither an octbal-bench-report-v* file nor a "
           "baseline wrapper containing one";
  }
  return nullptr;
}

const JsonValue* google_benchmark_section(const JsonValue& doc) {
  if (doc.find("benchmarks") && doc.find("benchmarks")->is_array())
    return &doc;
  if (doc.is_object()) {
    for (const auto& [key, v] : doc.obj) {
      const JsonValue* b = v.find("benchmarks");
      if (b && b->is_array()) return &v;
    }
  }
  return nullptr;
}

std::vector<CommEdge> top_talkers(const JsonValue& run, std::size_t n) {
  EdgeTally agg;
  const JsonValue* rounds = run.find("rounds");
  if (rounds && rounds->is_array()) {
    for (const JsonValue& round : rounds->arr) {
      const JsonValue* edges = round.find("edges");
      if (!edges || !edges->is_array()) continue;
      for (const JsonValue& e : edges->arr) {
        if (!e.is_array() || e.arr.size() != 4) continue;
        tally_edge(agg, static_cast<int>(e.arr[0].num),
                   static_cast<int>(e.arr[1].num), e.arr[2].as_uint(),
                   e.arr[3].as_uint());
      }
    }
  }
  return heaviest_edges(agg, n);
}

std::string render_report(const JsonValue& doc, std::string* err) {
  const JsonValue* rep = bench_report_section(doc, err);
  if (!rep) return "";
  std::string out;
  out += fmt("bench %s  (schema %s, threads %llu, %s)\n",
             rep->string_or("bench", "?").c_str(),
             rep->string_or("schema", "?").c_str(),
             static_cast<unsigned long long>(rep->uint_or("threads", 0)),
             rep->bool_or("ok", false) ? "ok" : "FAILED");
  if (const JsonValue* cfg = rep->find("config")) {
    out += "config:";
    if (cfg->obj.empty()) out += " (defaults)";
    for (const auto& [k, v] : cfg->obj) {
      out += " " + k + (v.str.empty() ? "" : "=" + v.str);
    }
    out += "\n";
  }
  if (const JsonValue* cm = rep->find("cost_model")) {
    out += fmt("cost model: alpha=%g s/msg, beta=%g s/byte\n",
               cm->number_or("alpha", 0), cm->number_or("beta", 0));
  }
  const JsonValue* runs = rep->find("runs");
  if (!runs || !runs->is_array()) return out;
  out += fmt("\n%6s %10s %7s | %9s %9s %9s %9s %9s | %s\n", "ranks",
             "octants", "algo", "local", "notify", "qry+resp", "rebal",
             "TOTAL", "traffic");
  for (const JsonValue& run : runs->arr) {
    const JsonValue* ph = run.find("phases");
    const JsonValue* comm = run.find("comm");
    out += fmt(
        "%6llu %10llu %7s | %9.4f %9.4f %9.4f %9.4f %9.4f | msgs=%llu "
        "bytes=%llu%s\n",
        static_cast<unsigned long long>(run.uint_or("ranks", 0)),
        static_cast<unsigned long long>(run.uint_or("octants_after", 0)),
        run.string_or("algo", "?").c_str(),
        ph ? ph->number_or("local_balance", 0) : 0,
        ph ? ph->number_or("notify", 0) : 0,
        ph ? ph->number_or("query_response", 0) : 0,
        ph ? ph->number_or("local_rebalance", 0) : 0,
        ph ? ph->number_or("total", 0) : 0,
        static_cast<unsigned long long>(
            comm ? comm->uint_or("messages", 0) +
                       comm->uint_or("notify_messages", 0)
                 : 0),
        static_cast<unsigned long long>(
            comm ? comm->uint_or("bytes", 0) + comm->uint_or("notify_bytes", 0)
                 : 0),
        run.bool_or("ok", true) ? "" : "  ** FAILED **");
  }
  // Per-run detail: octant growth, modeled time, heaviest edges.
  for (std::size_t i = 0; i < runs->arr.size(); ++i) {
    const JsonValue& run = runs->arr[i];
    out += fmt("\nrun[%zu] algo=%s ranks=%llu: octants %llu -> %llu, "
               "queries %llu, response items %llu, modeled %.3g s",
               i, run.string_or("algo", "?").c_str(),
               static_cast<unsigned long long>(run.uint_or("ranks", 0)),
               static_cast<unsigned long long>(run.uint_or("octants_before",
                                                           0)),
               static_cast<unsigned long long>(run.uint_or("octants_after",
                                                           0)),
               static_cast<unsigned long long>(run.uint_or("queries_sent",
                                                           0)),
               static_cast<unsigned long long>(run.uint_or("response_items",
                                                           0)),
               run.number_or("modeled_time", 0));
    if (const std::uint64_t t = run.uint_or("rounds_truncated", 0)) {
      out += fmt(" (%llu rounds not recorded)",
                 static_cast<unsigned long long>(t));
    }
    out += "\n";
    const auto talkers = top_talkers(run, 5);
    if (!talkers.empty()) {
      out += "  top talkers:";
      for (const CommEdge& e : talkers) {
        out += fmt(" %d->%d (%llu msgs, %llu B)", e.from, e.to,
                   static_cast<unsigned long long>(e.messages),
                   static_cast<unsigned long long>(e.bytes));
      }
      out += "\n";
    }
  }
  return out;
}

std::string render_critical_path(const JsonValue& doc, std::string* err) {
  const JsonValue* rep = bench_report_section(doc, err);
  if (!rep) return "";
  const JsonValue* runs = rep->find("runs");
  if (!runs || !runs->is_array()) {
    if (err) *err = "report has no runs array";
    return "";
  }
  std::string out;
  for (std::size_t i = 0; i < runs->arr.size(); ++i) {
    const JsonValue& run = runs->arr[i];
    out += fmt("run[%zu] algo=%s ranks=%llu\n", i,
               run.string_or("algo", "?").c_str(),
               static_cast<unsigned long long>(run.uint_or("ranks", 0)));
    const JsonValue* cp = run.find("critical_path");
    if (!cp || !cp->is_array() || cp->arr.empty()) {
      out += "  (no critical-path data: report predates "
             "octbal-bench-report-v2)\n";
      continue;
    }
    out += fmt("  %-18s %6s %5s %11s %11s %7s %11s  %s\n", "phase", "rounds",
               "coll", "time", "mean", "imbal", "slack", "bounded by");
    double sum = 0;
    for (const JsonValue& ph : cp->arr) {
      const double time = ph.number_or("time", 0);
      const double mean = ph.number_or("mean_time", 0);
      sum += time;
      std::string bounded;
      if (const JsonValue* hist = ph.find("critical_by_rank")) {
        // Top three bounding ranks, by rounds bounded.
        std::vector<std::pair<std::uint64_t, int>> top;
        for (const auto& [rank, count] : hist->obj) {
          top.push_back({count.as_uint(), std::atoi(rank.c_str())});
        }
        std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
          return a.first != b.first ? a.first > b.first : a.second < b.second;
        });
        for (std::size_t t = 0; t < top.size() && t < 3; ++t) {
          bounded += fmt("%sr%d x%llu", t ? ", " : "", top[t].second,
                         static_cast<unsigned long long>(top[t].first));
        }
      }
      out += fmt("  %-18s %6llu %5llu %11.4g %11.4g %7.2f %11.4g  %s\n",
                 ph.string_or("phase", "?").c_str(),
                 static_cast<unsigned long long>(ph.uint_or("rounds", 0)),
                 static_cast<unsigned long long>(ph.uint_or("collectives",
                                                            0)),
                 time, mean, mean > 0 ? time / mean : 0.0,
                 ph.number_or("slack", 0), bounded.c_str());
    }
    const double modeled = run.number_or("modeled_time", 0);
    out += fmt("  modeled time %.6g s; phase sum %.6g s (delta %.2g)\n",
               modeled, sum, modeled - sum);
  }
  return out;
}

std::string render_mem(const JsonValue& doc, std::string* err) {
  const JsonValue* rep = bench_report_section(doc, err);
  if (!rep) return "";
  const JsonValue* runs = rep->find("runs");
  if (!runs || !runs->is_array()) {
    if (err) *err = "report has no runs array";
    return "";
  }
  std::string out;
  bool any = false;
  for (std::size_t i = 0; i < runs->arr.size(); ++i) {
    const JsonValue& run = runs->arr[i];
    out += fmt("run[%zu] algo=%s ranks=%llu\n", i,
               run.string_or("algo", "?").c_str(),
               static_cast<unsigned long long>(run.uint_or("ranks", 0)));
    const JsonValue* mem = run.find("memory");
    if (!mem) {
      out += "  (no memory section: report predates octbal-bench-report-v3 "
             "or was built with OCTBAL_OBS_DISABLE)\n";
      continue;
    }
    any = true;
    out += fmt("  peak %llu B",
               static_cast<unsigned long long>(mem->uint_or("peak_bytes",
                                                            0)));
    if (const JsonValue* bpl = mem->find("bytes_per_leaf")) {
      out += fmt(" (%.2f B/leaf)", bpl->num);
    }
    if (const std::int64_t rss =
            static_cast<std::int64_t>(run.number_or("max_rss_kb", -1));
        rss >= 0) {
      out += fmt("; process max-RSS %lld KB (context only, not diffed)",
                 static_cast<long long>(rss));
    }
    out += "\n";
    if (const JsonValue* tags = mem->find("tags");
        tags && tags->is_object()) {
      out += fmt("  %-16s %12s %12s %12s %12s %7s\n", "tag", "total",
                 "engine", "rank max", "rank mean", "imbal");
      for (const auto& [name, t] : tags->obj) {
        out += fmt("  %-16s %12llu %12llu %12llu %12.1f %7.2f\n",
                   name.c_str(),
                   static_cast<unsigned long long>(t.uint_or("total", 0)),
                   static_cast<unsigned long long>(t.uint_or("engine", 0)),
                   static_cast<unsigned long long>(t.uint_or("max", 0)),
                   t.number_or("mean", 0), t.number_or("imbalance", 0));
      }
    }
    if (const JsonValue* phases = mem->find("phases");
        phases && phases->is_array() && !phases->arr.empty()) {
      out += fmt("  %-24s %12s %12s\n", "phase", "rank peak", "engine");
      for (const JsonValue& ph : phases->arr) {
        out += fmt("  %-24s %12llu %12llu\n",
                   ph.string_or("phase", "?").c_str(),
                   static_cast<unsigned long long>(ph.uint_or("max", 0)),
                   static_cast<unsigned long long>(ph.uint_or("engine", 0)));
      }
    }
  }
  if (!any && err && out.empty()) *err = "report carries no memory sections";
  return out;
}

bool diff_reports(const JsonValue& base, const JsonValue& fresh, double tol,
                  DiffResult& out, std::string* err) {
  // Google-benchmark documents: the benchmark *set* is the contract
  // (wall-clock values never are) — the ordered name lists must match.
  if (fresh.find("benchmarks")) {
    const JsonValue* fb = google_benchmark_section(fresh);
    const JsonValue* bb = google_benchmark_section(base);
    if (!fb || !bb) {
      if (err) *err = "no google-benchmark section to compare against";
      return false;
    }
    const auto& ba = bb->find("benchmarks")->arr;
    const auto& fa = fb->find("benchmarks")->arr;
    const std::size_t n = std::max(ba.size(), fa.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string path = "benchmarks[" + std::to_string(i) + "].name";
      const std::string want =
          i < ba.size() ? ba[i].string_or("name", "?") : "<missing>";
      const std::string got =
          i < fa.size() ? fa[i].string_or("name", "?") : "<missing>";
      out.exact_checked += 1;
      if (want != got) out.mismatches.push_back({path, want, got, false});
    }
    return true;
  }

  // Resolve the fresh side first so a multi-report baseline wrapper can be
  // paired by bench name instead of member order.
  const JsonValue* f = bench_report_section(fresh, err);
  if (!f) return false;
  const JsonValue* b =
      bench_report_section(base, err, f->string_or("bench", ""));
  if (!b) return false;
  const JsonValue* br = b->find("runs");
  const JsonValue* fr = f->find("runs");
  if (!br || !fr || !br->is_array() || !fr->is_array()) {
    if (err) *err = "report has no runs array";
    return false;
  }
  Differ(out, tol).walk("", "", *b, *f);
  return true;
}

std::string render_diff(const DiffResult& d, double tol) {
  std::string out;
  for (const DiffEntry& e : d.mismatches) {
    out += fmt("MISMATCH %s: baseline %s, fresh %s%s\n", e.path.c_str(),
               e.base.c_str(), e.fresh.c_str(),
               e.timing ? fmt(" (timing, tol %g)", tol).c_str() : "");
  }
  out += fmt("diff: %zu mismatch(es); %llu exact field(s) compared, %llu "
             "timing field(s) %s\n",
             d.mismatches.size(),
             static_cast<unsigned long long>(d.exact_checked),
             static_cast<unsigned long long>(tol >= 0 ? d.timing_checked
                                                      : d.timing_skipped),
             tol >= 0 ? "compared" : "skipped (pass --tol to enforce)");
  return out;
}

namespace {

std::string hex64(std::uint64_t v) {
  return fmt("%016llx", static_cast<unsigned long long>(v));
}

/// \p v as an integer in [0, limit) (a counter when \p limit is left out).
bool parse_uint(const JsonValue* v, std::uint64_t* out,
                double limit = HUGE_VAL) {
  if (!v || !v->is_integer() || v->num < 0 || v->num >= limit) return false;
  *out = v->as_uint();
  return true;
}

/// \p v as a 64-bit digest: a string of exactly 16 hex digits.
bool parse_hex64(const JsonValue* v, std::uint64_t* out) {
  if (!v || !v->is_string() || v->str.size() != 16 ||
      !std::all_of(v->str.begin(), v->str.end(),
                   [](unsigned char c) { return std::isxdigit(c) != 0; })) {
    return false;
  }
  *out = std::strtoull(v->str.c_str(), nullptr, 16);
  return true;
}

/// Read one flight log, rejecting anything a recorder could not have
/// written: a corrupt digest or count must not bisect as a real one.
bool parse_flight_run(const JsonValue& v, FlightLog* log, std::string* err) {
  const auto fail = [&](const std::string& what) {
    if (err) *err = what;
    return false;
  };
  if (!v.is_object()) return fail("flight log entry is not an object");
  log->label = v.string_or("label", "");
  std::uint64_t ranks = 0;
  if (!parse_uint(v.find("ranks"), &ranks, 1u << 31) || ranks < 1) {
    return fail("flight log has no valid rank count");
  }
  log->ranks = static_cast<int>(ranks);
  log->rounds_truncated = 0;
  if (const JsonValue* t = v.find("rounds_truncated");
      t && !parse_uint(t, &log->rounds_truncated)) {
    return fail("flight log has a non-numeric rounds_truncated");
  }
  const JsonValue* rounds = v.find("rounds");
  if (!rounds || !rounds->is_array()) {
    return fail("flight log has no rounds array");
  }
  log->rounds.clear();
  log->rounds.reserve(rounds->arr.size());
  for (const JsonValue& r : rounds->arr) {
    SimComm::Round& out = log->rounds.emplace_back();
    // Positions are rendered only on failure: a log can hold 1M edges.
    const auto at = [&] {
      return fmt("flight round %zu", log->rounds.size() - 1);
    };
    const auto edge_at = [&] {
      return at() + fmt(", edge %zu", out.edges.size() - 1);
    };
    out.phase = r.string_or("phase", "");
    if (!parse_uint(r.find("messages"), &out.total.messages) ||
        !parse_uint(r.find("bytes"), &out.total.bytes)) {
      return fail(at() + ": messages/bytes must be non-negative integers");
    }
    if (!parse_hex64(r.find("digest"), &out.digest)) {
      return fail(at() + ": digest is not 16 hex digits");
    }
    const JsonValue* edges = r.find("edges");
    if (!edges || !edges->is_array()) return fail(at() + " has no edges array");
    for (const JsonValue& e : edges->arr) {
      SimComm::Edge& fe = out.edges.emplace_back();
      if (!e.is_array() || e.arr.size() != 5) {
        return fail(edge_at() + ": want [from, to, messages, bytes, digest]");
      }
      std::uint64_t from = 0, to = 0;
      if (!parse_uint(&e.arr[0], &from, log->ranks) ||
          !parse_uint(&e.arr[1], &to, log->ranks)) {
        return fail(edge_at() + fmt(": from/to must be ranks in [0, %d)",
                                    log->ranks));
      }
      fe.from = static_cast<std::int32_t>(from);
      fe.to = static_cast<std::int32_t>(to);
      if (!parse_uint(&e.arr[2], &fe.messages) ||
          !parse_uint(&e.arr[3], &fe.bytes)) {
        return fail(edge_at() + ": messages/bytes must be non-negative "
                                "integers");
      }
      if (!parse_hex64(&e.arr[4], &out.digests.emplace_back())) {
        return fail(edge_at() + ": digest is not 16 hex digits");
      }
    }
  }
  return true;
}

std::string edge_desc(const SimComm::Round& r, std::size_t i) {
  return fmt("%llu msgs, %llu B, digest %s",
             static_cast<unsigned long long>(r.edges[i].messages),
             static_cast<unsigned long long>(r.edges[i].bytes),
             hex64(r.edge_digest(i)).c_str());
}

/// Merge the (from, to)-sorted edge lists of two rounds into \p d's
/// offending edges: an edge on one side only reads "absent" on the other.
void diff_edges(const SimComm::Round& a, const SimComm::Round& b,
                FlightDivergence& d) {
  constexpr std::size_t kMaxEdgeDiffs = 8;
  const auto add = [&](const SimComm::Edge& e, std::string on_a,
                       std::string on_b) {
    d.edges_differing += 1;
    if (d.edges.size() < kMaxEdgeDiffs) {
      d.edges.push_back({e.from, e.to, std::move(on_a), std::move(on_b)});
    }
  };
  std::size_t ia = 0, ib = 0;
  while (ia < a.edges.size() || ib < b.edges.size()) {
    const SimComm::Edge* ea = ia < a.edges.size() ? &a.edges[ia] : nullptr;
    const SimComm::Edge* eb = ib < b.edges.size() ? &b.edges[ib] : nullptr;
    if (ea &&
        (!eb || std::tie(ea->from, ea->to) < std::tie(eb->from, eb->to))) {
      add(*ea, edge_desc(a, ia), "absent");
      ++ia;
    } else if (!ea || std::tie(eb->from, eb->to) < std::tie(ea->from, ea->to)) {
      add(*eb, "absent", edge_desc(b, ib));
      ++ib;
    } else {
      if (ea->messages != eb->messages || ea->bytes != eb->bytes ||
          a.edge_digest(ia) != b.edge_digest(ib)) {
        add(*ea, edge_desc(a, ia), edge_desc(b, ib));
      }
      ++ia;
      ++ib;
    }
  }
}

}  // namespace

bool parse_flight(const JsonValue& doc, std::vector<FlightLog>* out,
                  std::string* err) {
  out->clear();
  if (doc.string_or("schema", "") == "octbal-flight-v1") {
    const JsonValue* runs = doc.find("runs");
    if (!runs || !runs->is_array()) {
      if (err) *err = "octbal-flight-v1 document has no runs array";
      return false;
    }
    for (const JsonValue& run : runs->arr) {
      FlightLog log;
      if (!parse_flight_run(run, &log, err)) return false;
      out->push_back(std::move(log));
    }
    if (out->empty()) {
      if (err) *err = "flight document has no runs";
      return false;
    }
    return true;
  }
  if (const JsonValue* rep = bench_report_section(doc, nullptr)) {
    const JsonValue* runs = rep->find("runs");
    if (runs && runs->is_array()) {
      for (const JsonValue& run : runs->arr) {
        const JsonValue* f = run.find("flight");
        if (!f) continue;
        FlightLog log;
        if (!parse_flight_run(*f, &log, err)) return false;
        if (log.label.empty()) {
          log.label = run.string_or("algo", "run") + "/p" +
                      std::to_string(run.uint_or("ranks", 0));
        }
        out->push_back(std::move(log));
      }
    }
    if (out->empty()) {
      if (err) {
        *err = "bench report has no embedded flight logs "
               "(re-run the bench with --flight)";
      }
      return false;
    }
    return true;
  }
  if (err) {
    *err = "document is neither octbal-flight-v1 nor a bench report with "
           "embedded flight logs";
  }
  return false;
}

FlightDivergence flight_bisect(const FlightLog& a, const FlightLog& b) {
  FlightDivergence d;
  d.label_a = a.label;
  d.label_b = b.label;
  if (a.ranks != b.ranks) {
    d.diverged = true;
    d.what = fmt("rank count differs (%d vs %d)", a.ranks, b.ranks);
    return d;
  }
  const std::size_t n = std::min(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SimComm::Round& ra = a.rounds[i];
    const SimComm::Round& rb = b.rounds[i];
    const bool same_phase = ra.phase == rb.phase;
    const bool same_content = ra.digest == rb.digest &&
                              ra.total.messages == rb.total.messages &&
                              ra.total.bytes == rb.total.bytes &&
                              ra.edges == rb.edges &&
                              ra.digests == rb.digests;
    if (same_phase && same_content) continue;
    d.diverged = true;
    d.round = static_cast<std::int64_t>(i);
    d.rounds_compared = i;
    d.phase_a = ra.phase;
    d.phase_b = rb.phase;
    diff_edges(ra, rb, d);
    if (!same_phase) {
      d.what = fmt("phase label differs (\"%s\" vs \"%s\")",
                   ra.phase.c_str(), rb.phase.c_str());
    } else {
      d.what = fmt("%llu edge(s) differ",
                   static_cast<unsigned long long>(d.edges_differing));
    }
    return d;
  }
  d.rounds_compared = n;
  // The logs agree on everything both actually recorded.  If either was
  // truncated, the remaining rounds are unknowable — refuse to rule rather
  // than report a bogus tail divergence (or a hollow "identical").
  if (a.rounds_truncated != 0 || b.rounds_truncated != 0) {
    d.truncated = true;
    d.what = fmt(
        "logs agree through round %zu, but recording was truncated "
        "(%llu vs %llu rounds not recorded) — cannot compare past the "
        "truncation point",
        n, static_cast<unsigned long long>(a.rounds_truncated),
        static_cast<unsigned long long>(b.rounds_truncated));
    return d;
  }
  if (a.rounds.size() != b.rounds.size()) {
    d.diverged = true;
    d.round = static_cast<std::int64_t>(n);
    d.what = fmt("round count differs (%zu vs %zu)", a.rounds.size(),
                 b.rounds.size());
    // The first extra round exists on one side only: every edge it carries
    // is an offender, absent on the other side.
    const bool a_longer = a.rounds.size() > b.rounds.size();
    const SimComm::Round& extra = (a_longer ? a : b).rounds[n];
    (a_longer ? d.phase_a : d.phase_b) = extra.phase;
    const SimComm::Round none;
    diff_edges(a_longer ? extra : none, a_longer ? none : extra, d);
  }
  return d;
}

bool flight_bisect_pairs(const std::vector<FlightLog>& a,
                         const std::vector<FlightLog>& b,
                         std::vector<FlightDivergence>* out,
                         std::string* err) {
  out->clear();
  if (a.size() != b.size()) {
    if (err) *err = fmt("log count differs (%zu vs %zu)", a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label) {
      if (err) {
        *err = fmt("log %zu label differs (\"%s\" vs \"%s\")", i,
                   a[i].label.c_str(), b[i].label.c_str());
      }
      return false;
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    out->push_back(flight_bisect(a[i], b[i]));
  }
  return true;
}

std::string render_flight(const std::vector<FlightLog>& logs) {
  std::string out;
  for (const FlightLog& log : logs) {
    std::uint64_t msgs = 0, bytes = 0;
    for (const auto& r : log.rounds) {
      msgs += r.total.messages;
      bytes += r.total.bytes;
    }
    out += fmt("flight %s: %d ranks, %zu rounds (%llu msgs, %llu B)",
               log.label.empty() ? "(unlabeled)" : log.label.c_str(),
               log.ranks, log.rounds.size(),
               static_cast<unsigned long long>(msgs),
               static_cast<unsigned long long>(bytes));
    if (log.rounds_truncated) {
      out += fmt("  [%llu rounds not recorded]",
                 static_cast<unsigned long long>(log.rounds_truncated));
    }
    out += "\n";
    // Phase timeline: consecutive same-phase round ranges.
    for (std::size_t i = 0; i < log.rounds.size();) {
      std::size_t j = i;
      std::uint64_t pm = 0, pb = 0;
      while (j < log.rounds.size() &&
             log.rounds[j].phase == log.rounds[i].phase) {
        pm += log.rounds[j].total.messages;
        pb += log.rounds[j].total.bytes;
        ++j;
      }
      out += fmt("  rounds [%zu..%zu] %-20s %llu msgs, %llu B\n", i, j - 1,
                 log.rounds[i].phase.c_str(),
                 static_cast<unsigned long long>(pm),
                 static_cast<unsigned long long>(pb));
      i = j;
    }
    // Heaviest edges over the whole log.
    EdgeTally agg;
    for (const auto& r : log.rounds) {
      for (const auto& e : r.edges) {
        tally_edge(agg, e.from, e.to, e.messages, e.bytes);
      }
    }
    const std::vector<CommEdge> top = heaviest_edges(agg, 5);
    if (!top.empty()) {
      out += "  top edges:";
      for (const CommEdge& e : top) {
        out += fmt(" %d->%d (%llu msgs, %llu B)", e.from, e.to,
                   static_cast<unsigned long long>(e.messages),
                   static_cast<unsigned long long>(e.bytes));
      }
      out += "\n";
    }
    // Digest spot-checks: first, middle, last round.
    if (!log.rounds.empty()) {
      std::vector<std::size_t> picks = {0, log.rounds.size() / 2,
                                        log.rounds.size() - 1};
      picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
      out += "  digest spot-checks:";
      for (const std::size_t i : picks) {
        out += fmt(" round %zu %s (%s)", i, hex64(log.rounds[i].digest).c_str(),
                   log.rounds[i].phase.c_str());
      }
      out += "\n";
    }
  }
  return out;
}

std::string render_bisect(const FlightDivergence& d) {
  std::string out;
  const std::string a = d.label_a.empty() ? "a" : d.label_a;
  const std::string b = d.label_b.empty() ? "b" : d.label_b;
  if (d.truncated) {
    out += fmt("bisect %s vs %s: INCONCLUSIVE — %s\n", a.c_str(), b.c_str(),
               d.what.c_str());
    return out;
  }
  if (!d.diverged) {
    out += fmt("bisect %s vs %s: IDENTICAL (%llu rounds compared)\n",
               a.c_str(), b.c_str(),
               static_cast<unsigned long long>(d.rounds_compared));
    return out;
  }
  if (d.round < 0) {
    out += fmt("bisect %s vs %s: %s\n", a.c_str(), b.c_str(), d.what.c_str());
    return out;
  }
  out += fmt("bisect %s vs %s: FIRST DIVERGENCE at round %lld", a.c_str(),
             b.c_str(), static_cast<long long>(d.round));
  if (!d.phase_a.empty() || !d.phase_b.empty()) {
    out += d.phase_a == d.phase_b
               ? fmt(" (phase %s)", d.phase_a.c_str())
               : fmt(" (phase %s vs %s)",
                     d.phase_a.empty() ? "<none>" : d.phase_a.c_str(),
                     d.phase_b.empty() ? "<none>" : d.phase_b.c_str());
  }
  out += "\n  " + d.what + "\n";
  for (const auto& e : d.edges) {
    out += fmt("  edge %d->%d: %s = %s; %s = %s\n", e.from, e.to, a.c_str(),
               e.a.c_str(), b.c_str(), e.b.c_str());
  }
  if (d.edges_differing > d.edges.size()) {
    out += fmt("  (+%llu more differing edges)\n",
               static_cast<unsigned long long>(d.edges_differing -
                                               d.edges.size()));
  }
  out += fmt("  %llu identical round(s) before divergence\n",
             static_cast<unsigned long long>(d.rounds_compared));
  return out;
}

std::string bisect_json(const FlightDivergence& d) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "octbal-inspect-bisect-v1");
  w.kv("diverged", d.diverged);
  w.kv("truncated", d.truncated);
  w.kv("round", d.round);
  w.kv("phase_a", d.phase_a);
  w.kv("phase_b", d.phase_b);
  w.kv("what", d.what);
  w.kv("label_a", d.label_a);
  w.kv("label_b", d.label_b);
  w.kv("rounds_compared", d.rounds_compared);
  w.kv("edges_differing", d.edges_differing);
  w.key("edges").begin_array();
  for (const auto& e : d.edges) {
    w.begin_object();
    w.kv("from", e.from);
    w.kv("to", e.to);
    w.kv("a", e.a);
    w.kv("b", e.b);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string diff_json(const DiffResult& d, double tol) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "octbal-inspect-diff-v1");
  w.kv("ok", d.ok());
  w.kv("tol", tol);
  w.kv("exact_checked", d.exact_checked);
  w.kv("timing_checked", d.timing_checked);
  w.kv("timing_skipped", d.timing_skipped);
  w.key("mismatches").begin_array();
  for (const DiffEntry& e : d.mismatches) {
    w.begin_object();
    w.kv("path", e.path);
    w.kv("base", e.base);
    w.kv("fresh", e.fresh);
    w.kv("timing", e.timing);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace octbal::obs
