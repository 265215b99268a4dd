#include "comm/simcomm.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace octbal {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// \p nranks, checked before it sizes the mailboxes.
int checked_ranks(int nranks) {
  if (nranks < 1) {
    throw std::invalid_argument("SimComm: nranks = " +
                                std::to_string(nranks) + " must be >= 1");
  }
  return nranks;
}

/// Reject a rank outside [0, size): it would index past the mailboxes.
void check_rank(const char* what, int rank, int size) {
  if (rank < 0 || rank >= size) {
    throw std::invalid_argument(std::string("SimComm::") + what + ": rank " +
                                std::to_string(rank) + " outside [0, " +
                                std::to_string(size) + ")");
  }
}

/// Chain \p n bytes into an FNV-1a 64-bit digest.
std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Chain one 64-bit value (little-endian bytes) into the digest.
std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// Process-wide flight default (see set_flight_default()): written only by
// the orchestrating thread before runs start, read once per constructor.
bool g_flight_default = false;

}  // namespace

void SimComm::set_flight_default(bool on) { g_flight_default = on; }
bool SimComm::flight_default() { return g_flight_default; }

SimComm::SimComm(int nranks)
    : outbox_(checked_ranks(nranks)),
      inbox_(nranks),
      send_mu_(std::make_unique<std::mutex[]>(nranks)),
      metrics_(std::make_unique<obs::Metrics>(nranks)) {
  flight_record_ = g_flight_default;
  c_msgs_sent_ = &metrics_->counter("comm/msgs_sent");
  c_bytes_sent_ = &metrics_->counter("comm/bytes_sent");
  c_msgs_recv_ = &metrics_->counter("comm/msgs_recv");
  c_bytes_recv_ = &metrics_->counter("comm/bytes_recv");
  c_critical_rounds_ = &metrics_->counter("comm/critical_rounds");
  c_rounds_ = &metrics_->scalar("comm/rounds");
  h_msg_bytes_ = &metrics_->histogram("comm/msg_bytes");
}

SimComm::PhaseCost& SimComm::phase_cost() {
  for (auto& p : phases_) {
    if (p.name == phase_) return p;
  }
  PhaseCost p;
  p.name = phase_;
  p.critical_by_rank.assign(static_cast<std::size_t>(size()), 0);
  phases_.push_back(std::move(p));
  return phases_.back();
}

void SimComm::send(int from, int to, std::vector<std::uint8_t> data) {
  check_rank("send", from, size());
  check_rank("send", to, size());
  // In-flight payload, attributed to the sender until deliver() hands it
  // to the receiver.  Charged against the sender's own slot, which is the
  // calling thread's rank in the BSP engine.
  obs::mem_charge(from, obs::MemTag::kCommMailbox, data.size());
  // Per-sender staging: rank bodies run concurrently between barriers, so
  // two ranks may post at once; each stages into its own outbox under its
  // own (uncontended in the BSP engine) mutex.  Cross-sender delivery
  // order is normalized in deliver(), so thread scheduling cannot change
  // what any receiver observes.
  std::lock_guard<std::mutex> lk(send_mu_[from]);
  outbox_[from].push_back(Pending{from, to, std::move(data)});
}

void SimComm::deliver() {
  OBS_SPAN("deliver");
  Timer barrier_timer;
  Round round;
  // Per-rank α–β cost of this round: the critical path is the maximum over
  // ranks of (bytes sent + received, messages sent + received).
  std::vector<CommStats> per_rank(outbox_.size());
  for (auto& src : outbox_) {
    // Aggregate this source's traffic per destination (sources are
    // visited in rank order, so edges come out sorted by (from, to)).
    std::map<int, std::pair<Edge, std::uint64_t>> by_dest;
    for (auto& p : src) {
      // Hand the payload's attribution from sender to receiver.  The
      // barrier is serial, so this canonical outbox walk makes mailbox
      // peaks independent of thread count and delivery scrambling.
      obs::mem_release(p.from, obs::MemTag::kCommMailbox, p.data.size());
      obs::mem_charge(p.to, obs::MemTag::kCommMailbox, p.data.size());
      stats_.messages += 1;
      stats_.bytes += p.data.size();
      per_rank[p.from].messages += 1;
      per_rank[p.from].bytes += p.data.size();
      per_rank[p.to].messages += 1;
      per_rank[p.to].bytes += p.data.size();
      c_msgs_sent_->add(p.from);
      c_bytes_sent_->add(p.from, p.data.size());
      c_msgs_recv_->add(p.to);
      c_bytes_recv_->add(p.to, p.data.size());
      h_msg_bytes_->record(p.from, p.data.size());
      if (record_rounds_) {
        auto& [e, digest] =
            by_dest.try_emplace(p.to, Edge{p.from, p.to}, kFlightDigestSeed)
                .first->second;
        e.messages += 1;
        e.bytes += p.data.size();
        if (flight_record_) {
          // Digest the canonical outbox walk, before the payload moves
          // into the inbox (and before any scramble): the chain depends
          // only on what was sent, per edge, in post order.
          digest = fnv1a_u64(digest, p.data.size());
          digest = fnv1a(digest, p.data.data(), p.data.size());
        }
      }
      inbox_[p.to].push_back(SimMessage{p.from, std::move(p.data)});
    }
    src.clear();
    for (const auto& [to, ed] : by_dest) {
      const auto& [e, digest] = ed;
      round.total.messages += e.messages;
      round.total.bytes += e.bytes;
      round.edges.push_back(e);
      if (flight_record_) {
        round.digest = fnv1a_u64(
            round.digest,
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.from))
             << 32) |
                static_cast<std::uint32_t>(e.to));
        round.digest = fnv1a_u64(round.digest, digest);
        round.digests.push_back(digest);
      }
    }
  }
  // Critical-path attribution: the round's modeled time is the maximum
  // per-rank α–β cost; the rank attaining it (lowest on ties, so the
  // choice is deterministic) bounds the round, and everyone else's gap to
  // it is slack.  All inputs are message/byte counts, so every value here
  // is byte-identical for any thread count.
  double worst = 0.0, sum = 0.0;
  int critical = -1;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const double t = model_.time(per_rank[r]);
    sum += t;
    if (t > worst) {
      worst = t;
      critical = static_cast<int>(r);
    }
  }
  modeled_time_ += worst;
  PhaseCost& pc = phase_cost();
  pc.rounds += 1;
  pc.time += worst;
  pc.mean_time += sum / static_cast<double>(per_rank.size());
  pc.slack += worst * static_cast<double>(per_rank.size()) - sum;
  if (critical >= 0) {
    pc.critical_by_rank[static_cast<std::size_t>(critical)] += 1;
    c_critical_rounds_->add(critical);
  }
  c_rounds_->add(0);
  // 24 B per recorded edge is what the flight_recorder memory goldens pin.
  static_assert(sizeof(Edge) == 24);
  // The record keeps a *contiguous prefix* of the round sequence: once a
  // round exceeds the budget, recording stops for good.  Admitting a
  // smaller later round after a drop would leave interior gaps, and a
  // gapped log bisects to a bogus first divergence (the comparison would
  // pair round i of one log with round j!=i of the other).
  if (record_rounds_) {
    if (rounds_truncated_ == 0 &&
        recorded_edges_ + round.edges.size() <= round_record_limit_) {
      recorded_edges_ += round.edges.size();
      recorded_digests_ += round.digests.size();
      round.phase = phase_;
      rounds_.push_back(std::move(round));
      rounds_mem_.set(obs::MemTag::kFlightRecorder,
                      recorded_edges_ * sizeof(Edge) +
                          recorded_digests_ * sizeof(std::uint64_t));
    } else {
      rounds_truncated_ += 1;
    }
  }
  // Keep inboxes deterministic: order by sender, stable in post order —
  // or, with failure injection enabled, in a pseudo-random order (still
  // reproducible from the scramble seed).
  for (auto& box : inbox_) {
    if (scramble_) {
      for (std::size_t i = box.size(); i > 1; --i) {
        // splitmix64 step for a reproducible shuffle.
        scramble_state_ += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = scramble_state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        std::swap(box[i - 1], box[(z ^ (z >> 31)) % i]);
      }
    } else {
      std::stable_sort(box.begin(), box.end(),
                       [](const SimMessage& a, const SimMessage& b) {
                         return a.from < b.from;
                       });
    }
  }
  barrier_seconds_ += barrier_timer.seconds();
}

std::vector<SimMessage> SimComm::recv_all(int rank) {
  check_rank("recv_all", rank, size());
  std::vector<SimMessage> out;
  out.swap(inbox_[rank]);
  // Drained payloads leave the mailbox: the caller owns them now (and
  // typically accounts them under its own staging tag).
  for (const SimMessage& m : out) {
    obs::mem_release(rank, obs::MemTag::kCommMailbox, m.data.size());
  }
  return out;
}

void SimComm::charge_collective(std::size_t total_bytes) {
  const int p = size();
  // A single-rank collective moves nothing: no messages, no bytes, no
  // modeled time.  (The occurrence is still counted for observability.)
  CommStats s;
  std::uint64_t logp = 0;
  if (p > 1) {
    logp = static_cast<std::uint64_t>(std::ceil(std::log2(p)));
    // Tree-structured message count, full-replication volume.
    s.messages = static_cast<std::uint64_t>(p) * logp;
    s.bytes = total_bytes;
  }
  stats_ += s;
  // Collectives are engine-level: no owning rank, so they land in scalar
  // metrics rather than the per-rank slots.
  metrics_->scalar("comm/collectives").add(0);
  metrics_->scalar("comm/collective_msgs").add(0, s.messages);
  metrics_->scalar("comm/collective_bytes").add(0, s.bytes);
  // Critical path: every rank receives the fully replicated payload over a
  // logarithmic number of rounds.  Every rank pays the same cost, so a
  // collective contributes no slack and no bounding rank.
  if (p > 1) {
    const double t = model_.time(CommStats{logp, total_bytes});
    modeled_time_ += t;
    PhaseCost& pc = phase_cost();
    pc.collectives += 1;
    pc.time += t;
    pc.mean_time += t;
  }
}

void SimComm::reset_stats() {
  stats_ = CommStats{};
  modeled_time_ = 0.0;
  rounds_.clear();
  recorded_edges_ = 0;
  recorded_digests_ = 0;
  rounds_truncated_ = 0;
  rounds_mem_.set(obs::MemTag::kFlightRecorder, 0);
  phases_.clear();
  barrier_seconds_ = 0.0;
  // The metrics registry intentionally keeps accumulating: snapshots are
  // whole-run records, and benches that segment phases construct a fresh
  // SimComm per run.
}

}  // namespace octbal
