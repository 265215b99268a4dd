#include "obs/report.hpp"

#include <cstdio>

namespace octbal::obs {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void balance_report_json(JsonWriter& w, const BalanceReport& rep) {
  w.key("phases").begin_object();
  w.kv("local_balance", rep.t_local_balance);
  w.kv("notify", rep.t_notify);
  w.kv("query_response", rep.t_query_response);
  w.kv("local_rebalance", rep.t_local_rebalance);
  w.kv("total", rep.total());
  w.kv("barrier", rep.t_barrier);
  w.end_object();
  w.key("comm").begin_object();
  w.kv("messages", rep.comm.messages);
  w.kv("bytes", rep.comm.bytes);
  w.kv("notify_messages", rep.notify_comm.messages);
  w.kv("notify_bytes", rep.notify_comm.bytes);
  w.end_object();
  w.kv("octants_before", rep.octants_before);
  w.kv("octants_after", rep.octants_after);
  w.kv("queries_sent", rep.queries_sent);
  w.kv("response_items", rep.response_items);
  w.key("subtree").begin_object();
  w.kv("hash_queries", rep.subtree.hash_queries);
  w.kv("hash_probes", rep.subtree.hash_probes);
  w.kv("hash_rehash_probes", rep.subtree.hash_rehash_probes);
  w.kv("binary_searches", rep.subtree.binary_searches);
  w.kv("sorted_octants", rep.subtree.sorted_octants);
  w.kv("output_octants", rep.subtree.output_octants);
  w.end_object();
  w.key("owner_scan").begin_object();
  w.kv("lookups", rep.owner_scan.lookups);
  w.kv("cache_hits", rep.owner_scan.cache_hits);
  w.kv("window_scans", rep.owner_scan.window_scans);
  w.kv("full_searches", rep.owner_scan.full_searches);
  w.kv("comparisons", rep.owner_scan.comparisons);
  w.end_object();
}

void rounds_json(JsonWriter& w, const std::vector<SimComm::Round>& rounds) {
  w.begin_array();
  for (const auto& round : rounds) {
    w.begin_object();
    w.kv("messages", round.total.messages);
    w.kv("bytes", round.total.bytes);
    w.key("edges").begin_array();
    for (const auto& e : round.edges) {
      w.begin_array();
      w.value(e.from).value(e.to).value(e.messages).value(e.bytes);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void critical_path_json(JsonWriter& w,
                        const std::vector<SimComm::PhaseCost>& phases) {
  w.begin_array();
  for (const auto& ph : phases) {
    w.begin_object();
    w.kv("phase", ph.name);
    w.kv("rounds", ph.rounds);
    w.kv("collectives", ph.collectives);
    w.kv("time", ph.time);
    w.kv("mean_time", ph.mean_time);
    w.kv("slack", ph.slack);
    w.key("critical_by_rank").begin_object();
    for (std::size_t r = 0; r < ph.critical_by_rank.size(); ++r) {
      if (ph.critical_by_rank[r] > 0) {
        w.kv(std::to_string(r), ph.critical_by_rank[r]);
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

void flight_log_json(JsonWriter& w, const FlightLog& log) {
  w.begin_object();
  w.kv("label", log.label);
  w.kv("ranks", log.ranks);
  w.kv("rounds_truncated", log.rounds_truncated);
  w.key("rounds").begin_array();
  for (const auto& r : log.rounds) {
    w.begin_object();
    w.kv("phase", r.phase);
    w.kv("messages", r.total.messages);
    w.kv("bytes", r.total.bytes);
    w.kv("digest", hex64(r.digest));
    w.key("edges").begin_array();
    for (std::size_t i = 0; i < r.edges.size(); ++i) {
      const SimComm::Edge& e = r.edges[i];
      w.begin_array();
      w.value(e.from).value(e.to).value(e.messages).value(e.bytes);
      w.value(hex64(r.edge_digest(i)));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string flight_doc_json(const std::vector<FlightLog>& logs,
                            const std::string& source) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "octbal-flight-v1");
  w.kv("source", source);
  w.key("runs").begin_array();
  for (const auto& log : logs) flight_log_json(w, log);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string balance_failure_json(const std::string& error, int ranks,
                                 const BalanceReport& rep,
                                 const Snapshot& metrics) {
  JsonWriter w;
  w.begin_object();
  w.kv("error", error);
  w.kv("ranks", ranks);
  balance_report_json(w, rep);
  w.key("metrics");
  metrics.to_json(w);
  w.end_object();
  return w.str();
}

}  // namespace octbal::obs
