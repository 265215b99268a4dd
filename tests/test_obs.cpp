/// \file test_obs.cpp
/// \brief The observability layer's contract: spans nest and order
/// correctly, histogram quantiles are sane, the trace sink emits valid
/// Chrome trace_event JSON, counter-derived metrics are byte-identical
/// for every thread count, and a disabled span costs (almost) nothing.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "forest/nodes.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

/// End any in-memory trace session a failed test left behind.
class TraceGuard {
 public:
  ~TraceGuard() { obs::trace_end(); }
};

// ---------------------------------------------------------------- spans --

TEST(Trace, SpansNestAndCarryRanks) {
  TraceGuard tg;
  obs::trace_begin("");  // memory-only session
  {
    OBS_SPAN("outer");
    { OBS_SPAN("inner"); }
    { OBS_SPAN_RANK("ranked", 3); }
  }
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, obs::TraceEvent> by_name;
  for (const auto& e : events) by_name[e.name] = e;
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner"));
  ASSERT_TRUE(by_name.count("ranked"));
  const auto& outer = by_name["outer"];
  const auto& inner = by_name["inner"];
  const auto& ranked = by_name["ranked"];
  // Nesting: both children lie inside [outer.begin, outer.end].
  EXPECT_LE(outer.begin_ns, inner.begin_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_LE(outer.begin_ns, ranked.begin_ns);
  EXPECT_LE(ranked.end_ns, outer.end_ns);
  // Ordering: inner's scope closed before ranked's opened.
  EXPECT_LE(inner.end_ns, ranked.begin_ns);
  // Rank tags.
  EXPECT_EQ(outer.rank, -1);
  EXPECT_EQ(inner.rank, -1);
  EXPECT_EQ(ranked.rank, 3);
  // Snapshot is begin-sorted, outer spans first on ties.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].begin_ns, events[i].begin_ns);
  }
  obs::trace_end();
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

TEST(Trace, RankBodiesRecordFromPoolThreads) {
  ThreadGuard guard;
  TraceGuard tg;
  par::set_num_threads(4);
  obs::trace_begin("");
  constexpr int kRanks = 16;
  par::parallel_for_ranks(kRanks, [](int r) { OBS_SPAN_RANK("body", r); });
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kRanks));
  std::set<int> ranks_seen;
  for (const auto& e : events) {
    EXPECT_STREQ(e.name, "body");
    ranks_seen.insert(e.rank);
    EXPECT_LE(e.begin_ns, e.end_ns);
  }
  EXPECT_EQ(ranks_seen.size(), static_cast<std::size_t>(kRanks));
  obs::trace_end();
}

TEST(Trace, BeginDiscardsPreviousSession) {
  TraceGuard tg;
  obs::trace_begin("");
  { OBS_SPAN("stale"); }
  obs::trace_begin("");
  { OBS_SPAN("fresh"); }
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
  obs::trace_end();
}

TEST(Trace, DisabledSpanOverheadIsTiny) {
  ASSERT_FALSE(obs::trace_enabled());
  constexpr int kIters = 200000;
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    OBS_SPAN("noop");
  }
  // A disabled span is one relaxed load and a branch; 200k of them take
  // microseconds.  The bound is absurdly generous to stay robust on a
  // loaded single-core CI box — it guards against accidentally adding a
  // lock or an allocation to the disabled path, not against slow clocks.
  EXPECT_LT(t.seconds(), 1.0);
}

// ---------------------------------------------------- trace JSON schema --
// The trace file is validated through obs/json_parse — the library parser
// that replaced the private MiniJsonParser these tests used to carry.

std::string read_file(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

TEST(Trace, ChromeTraceFileValidates) {
  ThreadGuard guard;
  TraceGuard tg;
  par::set_num_threads(2);
  const std::string path = ::testing::TempDir() + "octbal_test_trace.json";
  obs::trace_begin(path);
  {
    Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 4, 1);
    fractal_refine(f, 3);
    f.partition_uniform();
    SimComm comm(4);
    balance(f, BalanceOptions::new_config(), comm);
  }
  obs::trace_end();

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << "trace file missing: " << path;
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(text, doc, &err))
      << "trace is not valid JSON: " << err;
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->arr.empty());

  int complete = 0, metadata = 0, rank_view = 0;
  std::set<std::string> names;
  for (const obs::JsonValue& e : events->arr) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"name", "ph", "pid", "tid"}) {
      ASSERT_NE(e.find(key), nullptr) << "event missing \"" << key << '"';
    }
    const std::string ph = e.string_or("ph", "");
    ASSERT_TRUE(ph == "X" || ph == "M") << "unexpected ph: " << ph;
    if (ph == "X") {
      ++complete;
      names.insert(e.string_or("name", ""));
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.number_or("dur", -1), 0.0);
      if (e.number_or("pid", 0) == 2) ++rank_view;
    } else {
      ++metadata;
      EXPECT_EQ(e.string_or("name", ""), "process_name");
    }
  }
  EXPECT_GT(complete, 0);
  EXPECT_EQ(metadata, 2);  // thread view + simulated-rank view
  EXPECT_GT(rank_view, 0) << "no per-rank duplicate events";
  // The instrumented phases must actually show up.
  EXPECT_TRUE(names.count("balance"));
  EXPECT_TRUE(names.count("local_balance"));
  EXPECT_TRUE(names.count("local_rebalance"));
  EXPECT_TRUE(names.count("deliver"));
  std::remove(path.c_str());
}

// -------------------------------------------------------------- metrics --

TEST(Metrics, ReductionMatchesScStatisticsConvention) {
  const obs::Reduction r = obs::reduce({2, 4, 6, 8});
  EXPECT_EQ(r.min, 2u);
  EXPECT_EQ(r.max, 8u);
  EXPECT_EQ(r.total, 20u);
  EXPECT_DOUBLE_EQ(r.mean, 5.0);
  EXPECT_DOUBLE_EQ(r.median, 5.0);  // midpoint of 4 and 6 (even count)

  EXPECT_DOUBLE_EQ(r.imbalance, 8.0 / 5.0);

  const obs::Reduction odd = obs::reduce({9, 1, 5});
  EXPECT_DOUBLE_EQ(odd.median, 5.0);  // exact middle element (odd count)

  const obs::Reduction zero = obs::reduce({0, 0});
  EXPECT_DOUBLE_EQ(zero.imbalance, 0.0);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(UINT64_MAX), 64);

  // All samples equal: every quantile is exactly that value (clamping to
  // the exact min/max makes bucket interpolation irrelevant).
  obs::Histogram h1(2);
  for (int i = 0; i < 10; ++i) h1.record(i % 2, 42);
  const auto m1 = h1.merged();
  EXPECT_EQ(m1.count, 10u);
  EXPECT_EQ(m1.sum, 420u);
  EXPECT_EQ(m1.min, 42u);
  EXPECT_EQ(m1.max, 42u);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(m1.quantile(q), 42.0) << "q=" << q;
  }

  // 1..100: quantiles must be monotone, exact at the ends, and p50 must
  // land in the bucket holding the middle samples ([32, 64)).
  obs::Histogram h2(1);
  for (std::uint64_t v = 1; v <= 100; ++v) h2.record(0, v);
  const auto m2 = h2.merged();
  EXPECT_DOUBLE_EQ(m2.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m2.quantile(1.0), 100.0);
  const double p50 = m2.quantile(0.5);
  const double p90 = m2.quantile(0.9);
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, 100.0);
}

TEST(Metrics, RegistryReferencesAreStableAndSnapshotted) {
  obs::Metrics m(4);
  obs::Counter& c = m.counter("x");
  for (int i = 0; i < 100; ++i) m.counter(std::to_string(i));  // churn
  c.add(1, 7);
  m.counter("x").add(3, 5);
  m.scalar("s").add(0, 9);
  m.histogram("h").record(2, 1024);
  const obs::Snapshot snap = m.snapshot();
  ASSERT_TRUE(snap.counters.count("x"));
  EXPECT_EQ(snap.counters.at("x"),
            (std::vector<std::uint64_t>{0, 7, 0, 5}));
  ASSERT_TRUE(snap.counters.count("s"));
  EXPECT_EQ(snap.counters.at("s"), (std::vector<std::uint64_t>{9}));
  ASSERT_TRUE(snap.histograms.count("h"));
  EXPECT_EQ(snap.histograms.at("h").merged.count, 1u);
  EXPECT_EQ(snap.histograms.at("h").merged.sum, 1024u);
  // serialize() is the canonical byte-comparison form.
  const std::string s = snap.serialize();
  EXPECT_NE(s.find("counter x 0 7 0 5"), std::string::npos) << s;
  EXPECT_EQ(s, m.snapshot().serialize());
}

// ------------------------------------------- determinism across threads --

std::string instrumented_run(int threads) {
  par::set_num_threads(threads);
  constexpr int kRanks = 6;
  Forest<3> f(Connectivity<3>::brick({2, 2, 1}), kRanks, 1);
  fractal_refine(f, 4);
  f.partition_uniform();
  SimComm comm(kRanks);
  balance(f, BalanceOptions::new_config(), comm);
  build_ghost_layer(f, 3, comm);
  const NodeNumbering nn = enumerate_nodes(f.gather(), f.connectivity());
  assign_node_owners(f, nn, comm);
  return comm.metrics().snapshot().serialize();
}

TEST(Metrics, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::string ref = instrumented_run(1);
  // The whole registry — balance, notify, ghost, node-ownership sync —
  // serialized canonically, must not change by a single byte when the
  // same simulated run executes on 4 or 8 pool threads.
  EXPECT_FALSE(ref.empty());
  EXPECT_NE(ref.find("counter comm/msgs_sent"), std::string::npos);
  EXPECT_NE(ref.find("counter balance/queries_sent"), std::string::npos);
  EXPECT_NE(ref.find("counter ghost/entries"), std::string::npos);
  EXPECT_NE(ref.find("counter nodes/shared_ids_sent"), std::string::npos);
  EXPECT_NE(ref.find("hist comm/msg_bytes"), std::string::npos);
  for (int threads : {4, 8}) {
    EXPECT_EQ(instrumented_run(threads), ref) << "threads=" << threads;
  }
}

TEST(Metrics, RoundMatricesAreDeterministic) {
  ThreadGuard guard;
  auto run = [](int threads) {
    par::set_num_threads(threads);
    Forest<3> f(Connectivity<3>::brick({3, 1, 1}), 5, 1);
    fractal_refine(f, 4);
    f.partition_uniform();
    SimComm comm(5);
    balance(f, BalanceOptions::new_config(), comm);
    return comm.rounds();
  };
  const auto ref = run(1);
  ASSERT_FALSE(ref.empty());
  for (const auto& round : ref) {
    std::uint64_t msgs = 0, bytes = 0;
    for (std::size_t i = 0; i < round.edges.size(); ++i) {
      const auto& e = round.edges[i];
      msgs += e.messages;
      bytes += e.bytes;
      if (i > 0) {  // edges sorted by (from, to)
        const auto& p = round.edges[i - 1];
        EXPECT_TRUE(p.from < e.from || (p.from == e.from && p.to < e.to));
      }
    }
    EXPECT_EQ(msgs, round.total.messages);
    EXPECT_EQ(bytes, round.total.bytes);
  }
  for (int threads : {4, 8}) {
    const auto got = run(threads);
    ASSERT_EQ(got.size(), ref.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].total.messages, ref[i].total.messages);
      EXPECT_EQ(got[i].total.bytes, ref[i].total.bytes);
      ASSERT_EQ(got[i].edges.size(), ref[i].edges.size());
      for (std::size_t j = 0; j < ref[i].edges.size(); ++j) {
        EXPECT_EQ(got[i].edges[j].from, ref[i].edges[j].from);
        EXPECT_EQ(got[i].edges[j].to, ref[i].edges[j].to);
        EXPECT_EQ(got[i].edges[j].messages, ref[i].edges[j].messages);
        EXPECT_EQ(got[i].edges[j].bytes, ref[i].edges[j].bytes);
      }
    }
  }
}

// ---------------------------------------------------------------- timer --

TEST(Timer, PauseFreezesAccumulation) {
  Timer t;
  EXPECT_FALSE(t.paused());
  t.pause();
  EXPECT_TRUE(t.paused());
  const double frozen = t.seconds();
  // Burn a little real time; the paused timer must not see any of it.
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i * 0.5;
  EXPECT_EQ(t.seconds(), frozen);
  t.pause();  // idempotent
  EXPECT_EQ(t.seconds(), frozen);
  t.resume();
  EXPECT_FALSE(t.paused());
  EXPECT_GE(t.seconds(), frozen);
  t.resume();  // idempotent
  t.reset();
  EXPECT_FALSE(t.paused());
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Timer, BalanceReportExcludesBarrierTime) {
  // The barrier accounting must at least be self-consistent: barrier wall
  // time is measured, non-negative, and bounded by the run's wall time.
  Timer wall;
  Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 4, 1);
  fractal_refine(f, 4);
  f.partition_uniform();
  SimComm comm(4);
  const BalanceReport rep = balance(f, BalanceOptions::new_config(), comm);
  const double elapsed = wall.seconds();
  EXPECT_GE(rep.t_barrier, 0.0);
  EXPECT_LE(rep.t_barrier, elapsed);
  EXPECT_EQ(rep.t_barrier, comm.barrier_seconds());
}

// ----------------------------------------------------------- JsonWriter --

TEST(JsonWriter, EscapesAndNests) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\nd");
  w.kv("t", true);
  w.kv("n", 1.5);
  w.key("a").begin_array().value(1).value(2).end_array();
  w.key("o").begin_object().kv("k", "v").end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"t\":true,\"n\":1.5,"
            "\"a\":[1,2],\"o\":{\"k\":\"v\"}}");
  obs::JsonValue doc;
  EXPECT_TRUE(obs::json_parse(w.str(), doc));
  EXPECT_EQ(doc.string_or("s", ""), "a\"b\\c\nd");
  EXPECT_TRUE(doc.bool_or("t", false));
  EXPECT_DOUBLE_EQ(doc.number_or("n", 0), 1.5);
}

}  // namespace
}  // namespace octbal
