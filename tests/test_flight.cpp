/// \file test_flight.cpp
/// \brief The comm recorder's flight contract: per-round, per-edge records
/// whose order-sensitive digests are byte-identical for every thread count
/// and delivery scramble, bounded by one edge budget, (almost) free when
/// disabled, changing nothing but the digests when enabled,
/// round-trippable through the octbal-flight-v1 schema (which rejects
/// corrupt logs), and — via the audit wiring — able to pin every
/// fault-injection channel to a deterministic first-divergent round and
/// edge.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "audit/fuzzer.hpp"
#include "audit/invariants.hpp"
#include "comm/simcomm.hpp"
#include "forest/balance.hpp"
#include "obs/analysis.hpp"
#include "obs/json_parse.hpp"
#include "obs/report.hpp"
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

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// ------------------------------------------------------- recorder basics --

TEST(Flight, DisabledByDefault) {
  SimComm c(2);
  EXPECT_FALSE(c.flight_recording());
  c.send(0, 1, bytes({1, 2, 3}));
  c.deliver();
  c.recv_all(1);
  ASSERT_EQ(c.rounds().size(), 1u);
  EXPECT_EQ(c.rounds()[0].edges.size(), 1u);
  EXPECT_TRUE(c.rounds()[0].digests.empty());
  EXPECT_EQ(c.rounds()[0].digest, SimComm::kFlightDigestSeed);
}

TEST(Flight, RecordsRoundsWithSortedEdges) {
  SimComm c(3);
  c.set_flight_recording(true);
  c.set_phase("alpha");
  c.send(2, 0, bytes({9}));
  c.send(0, 1, bytes({1, 2}));
  c.send(0, 2, bytes({3}));
  c.send(1, 2, bytes({4, 5, 6}));
  c.deliver();
  for (int r = 0; r < 3; ++r) c.recv_all(r);
  c.set_phase("beta");
  c.deliver();  // empty rounds are recorded too, keeping indices aligned

  ASSERT_EQ(c.rounds().size(), 2u);
  const SimComm::Round& r0 = c.rounds()[0];
  EXPECT_EQ(r0.phase, "alpha");
  EXPECT_EQ(r0.total.messages, 4u);
  EXPECT_EQ(r0.total.bytes, 7u);
  ASSERT_EQ(r0.edges.size(), 4u);
  EXPECT_EQ(r0.digests.size(), 4u);
  for (std::size_t i = 1; i < r0.edges.size(); ++i) {
    const auto& a = r0.edges[i - 1];
    const auto& b = r0.edges[i];
    EXPECT_TRUE(a.from < b.from || (a.from == b.from && a.to < b.to));
  }
  EXPECT_EQ(r0.edges[0].from, 0);
  EXPECT_EQ(r0.edges[0].to, 1);
  EXPECT_EQ(r0.edges[0].bytes, 2u);
  EXPECT_NE(r0.digest, SimComm::kFlightDigestSeed);

  const SimComm::Round& r1 = c.rounds()[1];
  EXPECT_EQ(r1.phase, "beta");
  EXPECT_EQ(r1.total.messages, 0u);
  EXPECT_TRUE(r1.edges.empty());
  EXPECT_EQ(r1.digest, SimComm::kFlightDigestSeed);
}

TEST(Flight, DigestIsDeterministicAndContentSensitive) {
  const auto run = [](std::uint8_t last) {
    SimComm c(2);
    c.set_flight_recording(true);
    c.send(0, 1, bytes({1, 2}));
    c.send(0, 1, {3, last});
    c.deliver();
    c.recv_all(1);
    return c.rounds()[0];
  };
  const SimComm::Round a = run(4), b = run(4), d = run(5);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_NE(a.digest, d.digest) << "payload change must move the digest";

  // Message framing is part of the chain: {1,2}+{3,4} != {1,2,3}+{4}.
  SimComm c(2);
  c.set_flight_recording(true);
  c.send(0, 1, bytes({1, 2, 3}));
  c.send(0, 1, bytes({4}));
  c.deliver();
  c.recv_all(1);
  EXPECT_NE(c.rounds()[0].digests[0], a.digests[0]);
}

// One budget counts edges, with or without flight digests: a small round
// arriving after a dropped larger one must not be recorded.
void expect_budget_keeps_contiguous_prefix(bool flight) {
  SimComm c(3);
  c.set_flight_recording(flight);
  c.set_round_record_limit(3);
  c.send(0, 1, bytes({1}));
  c.send(0, 2, bytes({2}));
  c.deliver();  // 2 edges: fits
  c.send(1, 0, bytes({3}));
  c.send(1, 2, bytes({4}));
  c.deliver();  // would make 4 cumulative edges: dropped — recording stops
  c.send(2, 0, bytes({5}));
  c.deliver();  // would fit the leftover budget, but admitting it would
                // leave an interior gap; it must stay dropped
  for (int r = 0; r < 3; ++r) c.recv_all(r);
  ASSERT_EQ(c.rounds().size(), 1u);
  EXPECT_EQ(c.rounds_truncated(), 2u);
  EXPECT_EQ(c.rounds()[0].edges.size(), 2u);
  EXPECT_EQ(c.rounds()[0].digests.size(), flight ? 2u : 0u);
  EXPECT_EQ(c.rounds()[0].edges[0].from, 0);
}

TEST(Flight, EdgeBudgetKeepsContiguousPrefix) {
  expect_budget_keeps_contiguous_prefix(true);
}

TEST(Flight, RoundMatrixBudgetKeepsContiguousPrefix) {
  // The round matrix alone (flight off) obeys the same budget rule.
  expect_budget_keeps_contiguous_prefix(false);
}

TEST(Flight, BisectRefusesPastTruncationPoint) {
  // Two logs that agree on their recorded prefix, one truncated: the
  // bisector must not rule "identical" or invent a tail divergence.
  const auto capture = [](std::size_t limit) {
    SimComm c(2);
    c.set_flight_recording(true);
    c.set_round_record_limit(limit);
    for (int round = 0; round < 3; ++round) {
      c.send(0, 1, bytes({static_cast<std::uint8_t>(round)}));
      c.deliver();
      c.recv_all(1);
    }
    return obs::FlightLog{"log", 2, c.rounds_truncated(), c.rounds()};
  };
  const obs::FlightLog full = capture(16), capped = capture(2);
  ASSERT_EQ(capped.rounds.size(), 2u);
  ASSERT_EQ(capped.rounds_truncated, 1u);
  const obs::FlightDivergence d = obs::flight_bisect(full, capped);
  EXPECT_TRUE(d.truncated);
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(d.rounds_compared, 2u);
  EXPECT_NE(d.what.find("truncated"), std::string::npos) << d.what;
  EXPECT_NE(obs::render_bisect(d).find("INCONCLUSIVE"), std::string::npos);
  EXPECT_NE(obs::bisect_json(d).find("\"truncated\":true"),
            std::string::npos);

  // A divergence *inside* the common recorded prefix is genuine even when
  // a log is truncated.
  SimComm c(2);
  c.set_flight_recording(true);
  c.send(0, 1, bytes({99}));
  c.deliver();
  c.recv_all(1);
  const obs::FlightLog other{"log", 2, 0, c.rounds()};
  const obs::FlightDivergence g = obs::flight_bisect(capped, other);
  EXPECT_TRUE(g.diverged);
  EXPECT_FALSE(g.truncated);
  EXPECT_EQ(g.round, 0);
}

TEST(Flight, ResetStatsClearsTheLog) {
  SimComm c(2);
  c.set_flight_recording(true);
  c.send(0, 1, bytes({1}));
  c.deliver();
  c.recv_all(1);
  ASSERT_EQ(c.rounds().size(), 1u);
  c.reset_stats();
  EXPECT_TRUE(c.rounds().empty());
  EXPECT_EQ(c.rounds_truncated(), 0u);
}

TEST(Flight, DisabledRecorderOverheadIsTiny) {
  // Same discipline as the disabled-span guard in test_obs: with the
  // recorder off, the per-message cost is one predictable branch.  The
  // bound is absurdly generous for a loaded CI box — it guards against
  // accidentally adding an allocation or a map lookup to the disabled
  // path, not against slow clocks.
  SimComm c(2);
  ASSERT_FALSE(c.flight_recording());
  std::vector<std::uint8_t> payload(64, 7);
  Timer t;
  for (int i = 0; i < 20000; ++i) {
    c.send(0, 1, payload);
    c.deliver();
    c.recv_all(1);
  }
  EXPECT_LT(t.seconds(), 2.0);
}

// ------------------------------------------- thread/scramble invariance --

/// Balance the Figure 15-style workload on \p comm (8 ranks).
void fig15_balance(SimComm& comm) {
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), 8, 2);
  fractal_refine(f, 3);
  f.partition_uniform();
  balance(f, BalanceOptions::new_config(), comm);
}

/// The Figure 15-style workload's flight document, recorded at \p threads
/// pool threads (and optionally under a scrambled delivery order).
std::string fig15_flight_doc(int threads, bool scramble) {
  par::set_num_threads(threads);
  SimComm comm(8);
  comm.set_flight_recording(true);
  if (scramble) comm.set_scramble(42);
  fig15_balance(comm);
  obs::FlightLog log{"fig15", 8, comm.rounds_truncated(), comm.rounds()};
  return obs::flight_doc_json({log}, "test_flight");
}

TEST(Flight, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::string t1 = fig15_flight_doc(1, false);
  const std::string t4 = fig15_flight_doc(4, false);
  const std::string t8 = fig15_flight_doc(8, false);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t8);
  EXPECT_NE(t1.find("\"schema\":\"octbal-flight-v1\""), std::string::npos);
}

TEST(Flight, ByteIdenticalUnderDeliveryScramble) {
  // Digests chain over the canonical outbox walk, before the inbox
  // scramble: a pure delivery-order change must not move the flight.
  ThreadGuard guard;
  EXPECT_EQ(fig15_flight_doc(2, false), fig15_flight_doc(2, true));
}

TEST(Flight, RecordingChangesOnlyTheDigests) {
  // Flight recording adds digests to the rounds and touches nothing else:
  // edges, totals, the critical path, the traffic totals and the metrics
  // registry are the same with it off and on.
  SimComm off(8), on(8);
  on.set_flight_recording(true);
  fig15_balance(off);
  fig15_balance(on);

  ASSERT_FALSE(off.rounds().empty());
  ASSERT_EQ(off.rounds().size(), on.rounds().size());
  EXPECT_EQ(off.rounds_truncated(), on.rounds_truncated());
  for (std::size_t i = 0; i < off.rounds().size(); ++i) {
    const SimComm::Round& a = off.rounds()[i];
    const SimComm::Round& b = on.rounds()[i];
    EXPECT_EQ(a.phase, b.phase) << "round " << i;
    EXPECT_EQ(a.total.messages, b.total.messages) << "round " << i;
    EXPECT_EQ(a.total.bytes, b.total.bytes) << "round " << i;
    ASSERT_EQ(a.edges.size(), b.edges.size()) << "round " << i;
    for (std::size_t j = 0; j < a.edges.size(); ++j) {
      EXPECT_EQ(a.edges[j].from, b.edges[j].from);
      EXPECT_EQ(a.edges[j].to, b.edges[j].to);
      EXPECT_EQ(a.edges[j].messages, b.edges[j].messages);
      EXPECT_EQ(a.edges[j].bytes, b.edges[j].bytes);
    }
    // Off: no digests.  On: one per edge, and a round that moved anything
    // has a digest off the seed.
    EXPECT_TRUE(a.digests.empty()) << "round " << i;
    EXPECT_EQ(a.digest, SimComm::kFlightDigestSeed) << "round " << i;
    ASSERT_EQ(b.digests.size(), b.edges.size()) << "round " << i;
    for (const std::uint64_t d : b.digests) {
      EXPECT_NE(d, SimComm::kFlightDigestSeed) << "round " << i;
    }
    EXPECT_EQ(b.digest == SimComm::kFlightDigestSeed, b.edges.empty())
        << "round " << i;
  }

  const auto& pa = off.critical_path();
  const auto& pb = on.critical_path();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name);
    EXPECT_EQ(pa[i].rounds, pb[i].rounds);
    EXPECT_EQ(pa[i].collectives, pb[i].collectives);
    EXPECT_EQ(pa[i].time, pb[i].time);
    EXPECT_EQ(pa[i].mean_time, pb[i].mean_time);
    EXPECT_EQ(pa[i].slack, pb[i].slack);
    EXPECT_EQ(pa[i].critical_by_rank, pb[i].critical_by_rank);
  }
  EXPECT_EQ(off.stats().messages, on.stats().messages);
  EXPECT_EQ(off.stats().bytes, on.stats().bytes);
  EXPECT_EQ(off.modeled_time(), on.modeled_time());
  EXPECT_EQ(off.metrics().snapshot().serialize(),
            on.metrics().snapshot().serialize());
}

// ------------------------------------------------------ bisect semantics --

obs::FlightLog synthetic_log(std::string label) {
  obs::FlightLog log;
  log.label = std::move(label);
  log.ranks = 3;
  for (int r = 0; r < 4; ++r) {
    SimComm::Round round;
    round.phase = r < 2 ? "balance/queries" : "partition";
    SimComm::Edge e;
    e.from = r % 2;
    e.to = 2;
    e.messages = 1;
    e.bytes = 16;
    round.edges.push_back(e);
    round.digests.push_back(0x1000u + static_cast<std::uint64_t>(r));
    round.total.messages = 1;
    round.total.bytes = 16;
    round.digest = 0x2000u + static_cast<std::uint64_t>(r);
    log.rounds.push_back(std::move(round));
  }
  return log;
}

TEST(FlightBisect, IdenticalLogsDoNotDiverge) {
  const obs::FlightDivergence d =
      obs::flight_bisect(synthetic_log("a"), synthetic_log("b"));
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(d.rounds_compared, 4u);
  EXPECT_NE(obs::render_bisect(d).find("IDENTICAL"), std::string::npos);
}

TEST(FlightBisect, ReportsEarliestDifferingRoundAndEdge) {
  obs::FlightLog a = synthetic_log("clean");
  obs::FlightLog b = synthetic_log("injected");
  b.rounds[2].digest ^= 1;
  b.rounds[2].digests[0] ^= 1;
  b.rounds[3].digest ^= 1;  // later damage must not win
  const obs::FlightDivergence d = obs::flight_bisect(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.round, 2);
  EXPECT_EQ(d.phase_a, "partition");
  ASSERT_EQ(d.edges.size(), 1u);
  EXPECT_EQ(d.edges[0].from, 0);
  EXPECT_EQ(d.edges[0].to, 2);
  EXPECT_EQ(d.rounds_compared, 2u);
  const std::string json = obs::bisect_json(d);
  EXPECT_NE(json.find("\"schema\":\"octbal-inspect-bisect-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"round\":2"), std::string::npos);
}

TEST(FlightBisect, RoundCountMismatchDivergesAtTheShorterLength) {
  obs::FlightLog a = synthetic_log("a");
  obs::FlightLog b = synthetic_log("b");
  b.rounds.pop_back();
  const obs::FlightDivergence d = obs::flight_bisect(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.round, 3);
}

TEST(FlightBisect, RankMismatchIsStructural) {
  obs::FlightLog a = synthetic_log("a");
  obs::FlightLog b = synthetic_log("b");
  b.ranks = 4;
  const obs::FlightDivergence d = obs::flight_bisect(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.round, -1);
}

// ------------------------------------------------------- JSON round trip --

TEST(Flight, DocRoundTripsThroughParser) {
  SimComm c(3);
  c.set_flight_recording(true);
  c.set_phase("alpha");
  c.send(0, 1, bytes({1, 2}));
  c.send(2, 1, bytes({3}));
  c.deliver();
  for (int r = 0; r < 3; ++r) c.recv_all(r);
  obs::FlightLog log{"trip", 3, c.rounds_truncated(), c.rounds()};
  const std::string doc = obs::flight_doc_json({log}, "test_flight");

  obs::JsonValue parsed;
  std::string err;
  ASSERT_TRUE(obs::json_parse(doc, parsed, &err)) << err;
  std::vector<obs::FlightLog> logs;
  ASSERT_TRUE(obs::parse_flight(parsed, &logs, &err)) << err;
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].label, "trip");
  EXPECT_EQ(logs[0].ranks, 3);
  ASSERT_EQ(logs[0].rounds.size(), 1u);
  const auto& want = log.rounds[0];
  const auto& got = logs[0].rounds[0];
  EXPECT_EQ(got.phase, want.phase);
  EXPECT_EQ(got.total.messages, want.total.messages);
  EXPECT_EQ(got.total.bytes, want.total.bytes);
  EXPECT_EQ(got.digest, want.digest);  // 64-bit survives the hex encoding
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t i = 0; i < got.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].from, want.edges[i].from);
    EXPECT_EQ(got.edges[i].to, want.edges[i].to);
  }
  EXPECT_EQ(got.digests, want.digests);
  // Round-tripped logs bisect as identical.
  EXPECT_FALSE(obs::flight_bisect(log, logs[0]).diverged);
}

/// A one-round, one-edge octbal-flight-v1 document with \p round_digest,
/// \p edge (the edge array's members) and \p counts (the round's
/// messages/bytes members) spliced in.
std::string tiny_flight_doc(const std::string& round_digest,
                            const std::string& edge,
                            const std::string& counts = "\"messages\":1,"
                                                        "\"bytes\":3") {
  return "{\"schema\":\"octbal-flight-v1\",\"source\":\"t\",\"runs\":[{"
         "\"label\":\"x\",\"ranks\":2,\"rounds_truncated\":0,\"rounds\":[{"
         "\"phase\":\"p\"," +
         counts + ",\"digest\":" + round_digest + ",\"edges\":[[" + edge +
         "]]}]}]}";
}

/// parse_flight's verdict on \p text; the error lands in \p err.
bool parses(const std::string& text, std::string* err) {
  obs::JsonValue doc;
  if (!obs::json_parse(text, doc, err)) return false;
  std::vector<obs::FlightLog> logs;
  return obs::parse_flight(doc, &logs, err);
}

const std::string kDigest = "\"0123456789abcdef\"";
const std::string kEdge = "0,1,1,3,\"fedcba9876543210\"";

TEST(FlightParse, AcceptsTheWellFormedDocument) {
  std::string err;
  EXPECT_TRUE(parses(tiny_flight_doc(kDigest, kEdge), &err)) << err;
}

TEST(FlightParse, RejectsMalformedDigest) {
  // A digest that is not 16 hex digits used to parse as 0 without a word,
  // so two differently corrupted logs bisected as identical.
  for (const std::string bad :
       {"\"\"", "\"0123456789abcde\"", "\"0123456789abcdef0\"",
        "\"0123456789abcdeg\"", "\"zz\"", "17"}) {
    std::string err;
    EXPECT_FALSE(parses(tiny_flight_doc(bad, kEdge), &err)) << "round " << bad;
    EXPECT_NE(err.find("digest"), std::string::npos) << err;
    EXPECT_FALSE(parses(tiny_flight_doc(kDigest, "0,1,1,3," + bad), &err))
        << "edge " << bad;
    EXPECT_NE(err.find("digest"), std::string::npos) << err;
  }
}

TEST(FlightParse, RejectsEdgeRankOutsideTheRun) {
  // The document's run has 2 ranks.
  for (const std::string bad : {"2,1", "0,2", "-1,0", "0,1.5", "\"0\",1",
                                "null,1"}) {
    std::string err;
    EXPECT_FALSE(parses(
        tiny_flight_doc(kDigest, bad + ",1,3,\"fedcba9876543210\""), &err))
        << bad;
    EXPECT_NE(err.find("from/to"), std::string::npos) << err;
  }
}

TEST(FlightParse, RejectsNonNumericCounts) {
  for (const std::string bad : {"\"1\",3", "1,\"3\"", "1,-3", "1,2.5",
                                "true,3"}) {
    std::string err;
    EXPECT_FALSE(parses(
        tiny_flight_doc(kDigest, "0,1," + bad + ",\"fedcba9876543210\""),
        &err))
        << "edge " << bad;
    EXPECT_NE(err.find("messages/bytes"), std::string::npos) << err;
  }
  std::string err;
  EXPECT_FALSE(parses(
      tiny_flight_doc(kDigest, kEdge, "\"messages\":\"1\",\"bytes\":3"),
      &err));
  EXPECT_NE(err.find("messages/bytes"), std::string::npos) << err;
  EXPECT_FALSE(parses(tiny_flight_doc(kDigest, kEdge, "\"messages\":1"), &err))
      << "missing bytes";
}

// ------------------------------------- fault-channel pinned attributions --
// One test per injection channel: the audit battery must localize the
// defect to the same first-divergent round and edge on every run.  The
// pinned values are the channels' observable signatures — a change here
// means the fault's comm footprint moved, which is worth noticing.

audit::FuzzFailure pinned_failure(std::uint64_t seed, FaultInjection inject) {
  audit::FuzzOptions opt;
  opt.inject = inject;
  opt.shrink = false;
  audit::CaseConfig cfg = audit::random_case_config(seed);
  cfg.opt.inject = inject;
  audit::FuzzFailure f;
  EXPECT_FALSE(audit::Fuzzer(opt).run_case(cfg, &f));
  return f;
}

void expect_doc_bisects_to(const audit::FuzzFailure& f) {
  obs::JsonValue parsed;
  std::string err;
  ASSERT_TRUE(obs::json_parse(f.flight_doc, parsed, &err)) << err;
  std::vector<obs::FlightLog> logs;
  ASSERT_TRUE(obs::parse_flight(parsed, &logs, &err)) << err;
  ASSERT_EQ(logs.size(), 2u);
  const obs::FlightDivergence d = obs::flight_bisect(logs[0], logs[1]);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.round, f.divergent_round);
}

TEST(FlightAttribution, SkipInsulationNeighborPinsRoundAndEdge) {
  const audit::FuzzFailure f =
      pinned_failure(9, FaultInjection::kSkipInsulationNeighbor);
  EXPECT_EQ(f.invariant, "balance") << f.detail;
  EXPECT_EQ(f.divergent_round, 2) << f.detail;
  EXPECT_EQ(f.divergent_phase, "balance/queries");
  EXPECT_EQ(f.divergent_edge, "0->1");
  expect_doc_bisects_to(f);
}

TEST(FlightAttribution, OrderDependentReducePinsRoundAndEdge) {
  // Seed 173 draws a two-round insulation-weighted repartition: the two
  // delivery orders balance to different forests, so the first re-split
  // migrates different octants and the divergence surfaces there.
  const audit::FuzzFailure f =
      pinned_failure(173, FaultInjection::kOrderDependentReduce);
  EXPECT_EQ(f.invariant, "scramble_invariance") << f.detail;
  EXPECT_EQ(f.divergent_round, 5) << f.detail;
  EXPECT_EQ(f.divergent_phase, "partition");
  EXPECT_EQ(f.divergent_edge, "1->0");
  expect_doc_bisects_to(f);
}

TEST(FlightAttribution, StaleMarkerNudgePinsRoundAndEdge) {
  // kStaleMarkers (the test keeps the channel's former name).  The stale
  // index misroutes the *next* repartition exchange: in the clean run the
  // second re-split finds its cuts in place and sends nothing, while the
  // injected run plans against the stale markers and ships a whole extra
  // partition round.  The divergence is therefore a round present on one
  // side only — no clean phase — and its edges are the misrouted
  // migration, absent from the clean log: the "moved the data, forgot the
  // index" postmortem the README walks through.
  const audit::FuzzFailure f =
      pinned_failure(18, FaultInjection::kStaleMarkers);
  EXPECT_EQ(f.invariant, "repartition/preserves_content") << f.detail;
  EXPECT_EQ(f.divergent_round, 3) << f.detail;
  EXPECT_EQ(f.divergent_phase, "|partition");
  EXPECT_EQ(f.divergent_edge, "0->1");
  expect_doc_bisects_to(f);

  obs::JsonValue parsed;
  std::string err;
  ASSERT_TRUE(obs::json_parse(f.flight_doc, parsed, &err)) << err;
  std::vector<obs::FlightLog> logs;
  ASSERT_TRUE(obs::parse_flight(parsed, &logs, &err)) << err;
  ASSERT_EQ(logs.size(), 2u);
  const obs::FlightDivergence d = obs::flight_bisect(logs[0], logs[1]);
  ASSERT_EQ(d.edges.size(), 2u);
  EXPECT_EQ(d.edges_differing, 2u);
  EXPECT_EQ(d.edges[0].from, 0);
  EXPECT_EQ(d.edges[0].to, 1);
  EXPECT_EQ(d.edges[1].from, 2);
  EXPECT_EQ(d.edges[1].to, 1);
  EXPECT_EQ(d.edges[0].a, "absent");
  EXPECT_EQ(d.edges[1].a, "absent");
  std::uint64_t bytes = 0;
  for (const auto& e : logs[1].rounds[3].edges) bytes += e.bytes;
  EXPECT_EQ(bytes, 160u);
}

TEST(FlightAttribution, DetailCarriesTheDivergenceSummary) {
  const audit::FuzzFailure f =
      pinned_failure(9, FaultInjection::kSkipInsulationNeighbor);
  EXPECT_NE(f.detail.find("comm divergence (clean vs injected)"),
            std::string::npos)
      << f.detail;
  EXPECT_NE(f.detail.find("first at round 2"), std::string::npos) << f.detail;
}

}  // namespace
}  // namespace octbal
