#pragma once
/// \file simcomm.hpp
/// \brief A bulk-synchronous simulated communicator.
///
/// SimComm hosts P simulated ranks inside one process.  Parallel algorithms
/// are written rank-locally against this interface and driven in
/// bulk-synchronous steps: during a step every rank may post point-to-point
/// messages; deliver() then moves them to the receivers' inboxes, where the
/// next step picks them up.  Collectives (allgather/allgatherv/allreduce)
/// are provided as engine-level operations with explicit cost accounting.
///
/// This substitutes for MPI on a single machine (see DESIGN.md): per-rank
/// work, message counts, and communication volumes — the quantities the
/// paper's claims are about — are measured exactly; modeled time comes from
/// comm/stats.hpp.
///
/// One recorder keeps the per-round evidence: each deliver() appends a
/// Round (phase, totals, and the (from, to, messages, bytes) edges), under
/// one cumulative edge budget.  Flight recording (`--flight` on the
/// benches) adds per-edge and per-round payload digests to the same
/// records, so two runs can be bisected to their first differing round.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "comm/stats.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace octbal {

/// A delivered point-to-point message.
struct SimMessage {
  int from = 0;
  std::vector<std::uint8_t> data;
};

class SimComm {
 public:
  /// Throws std::invalid_argument when \p nranks < 1.
  explicit SimComm(int nranks);

  int size() const { return static_cast<int>(outbox_.size()); }

  /// Post a message from rank \p from to rank \p to; visible at \p to after
  /// the next deliver().  Zero-length messages are legal and are counted.
  /// Throws std::invalid_argument when either rank is outside [0, size()).
  ///
  /// Thread-safety: send() may be called concurrently for *different*
  /// senders with no synchronization cost beyond an uncontended per-sender
  /// mutex; concurrent posts with the same \p from are serialized by that
  /// mutex (data-race-free, but their relative order then depends on the
  /// schedule).  The BSP engine (par::parallel_for_ranks) runs each rank
  /// body on one thread and every rank posts only from == itself, so
  /// delivery order stays the deterministic (sender, post order) for any
  /// thread count.  deliver()/recv_all()/collectives are engine-level steps
  /// and must be called from the orchestrating thread only (recv_all of
  /// *distinct* ranks may run concurrently between barriers).
  void send(int from, int to, std::vector<std::uint8_t> data);

  /// Typed convenience: send a contiguous array of trivially copyable T.
  template <typename T>
  void send_items(int from, int to, std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> buf(items.size_bytes());
    if (!items.empty()) std::memcpy(buf.data(), items.data(), buf.size());
    send(from, to, std::move(buf));
  }

  /// Barrier: move every posted message into the receiver inboxes.
  /// Counts one communication round for the cost model (per-rank maxima).
  void deliver();

  /// Drain the inbox of \p rank (messages are returned in deterministic
  /// (sender, post order) order).  Throws std::invalid_argument when
  /// \p rank is outside [0, size()).
  std::vector<SimMessage> recv_all(int rank);

  template <typename T>
  static std::vector<T> decode_items(const SimMessage& m) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> v(m.data.size() / sizeof(T));
    if (!v.empty()) std::memcpy(v.data(), m.data.data(), v.size() * sizeof(T));
    return v;
  }

  /// Allgather of one value per rank.  Cost: a tree-structured exchange in
  /// messages, full replication in volume.
  template <typename T>
  std::vector<T> allgather(const std::vector<T>& per_rank) {
    charge_collective(per_rank.size() * sizeof(T) * (size() - 1));
    return per_rank;
  }

  /// Allreduce (sum): every rank contributes one value, every rank ends up
  /// with the global sum.  Cost: a single element through the reduction
  /// tree — the cheapest global agreement the engine offers, used e.g. as
  /// the per-round termination consensus of delta_balance().
  template <typename T>
  T allreduce_sum(const std::vector<T>& per_rank) {
    charge_collective(sizeof(T) * (size() - 1));
    T sum{};
    for (const T& v : per_rank) sum += v;
    return sum;
  }

  /// Allgatherv: concatenate per-rank buffers on every rank.  Returns the
  /// concatenation plus offsets.  Cost: full replication of all data.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<std::vector<T>>& per_rank,
                            std::vector<std::size_t>* offsets) {
    std::vector<T> all;
    std::size_t total = 0;
    if (offsets) offsets->clear();
    for (const auto& v : per_rank) {
      if (offsets) offsets->push_back(all.size());
      all.insert(all.end(), v.begin(), v.end());
      total += v.size() * sizeof(T);
    }
    if (offsets) offsets->push_back(all.size());
    charge_collective(total * (size() - 1));
    return all;
  }

  /// Exact totals since construction.
  const CommStats& stats() const { return stats_; }

  /// The run's metrics registry (one slot per simulated rank): the engine
  /// feeds per-rank send/recv counters and the message-size histogram;
  /// the pipelines (balance, ghost, nodes) add their own counters.  All
  /// registry contents are deterministic for any thread count.
  obs::Metrics& metrics() { return *metrics_; }
  const obs::Metrics& metrics() const { return *metrics_; }

  /// FNV-1a 64-bit offset basis: the seed of every flight digest chain.
  static constexpr std::uint64_t kFlightDigestSeed = 0xcbf29ce484222325ull;

  /// One (from, to) edge of a recorded round: the messages and bytes the
  /// round moved from rank `from` to rank `to`.
  struct Edge {
    std::int32_t from = 0;
    std::int32_t to = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;

    friend bool operator==(const Edge&, const Edge&) = default;
  };

  /// One deliver() round: who sent how much to whom, aggregated per
  /// (from, to) edge and sorted by it.  While flight recording is on
  /// (set_flight_recording()) the round also carries digests: edge i's
  /// order-sensitive FNV-1a chain over its payloads in post order (each
  /// message's length, then its bytes) in digests[i], and a round digest
  /// that folds every edge's identity and digest, so two rounds are
  /// content-identical iff their digests match (modulo 64-bit
  /// collisions).  The chains run over the canonical outbox walk, before
  /// any inbox scramble, so they are byte-identical for any thread count
  /// and any delivery-order injection.  With flight recording off,
  /// digests stays empty and digest stays kFlightDigestSeed.
  struct Round {
    std::string phase;  ///< phase label active when the round delivered
    CommStats total;    ///< sums over the edges
    std::vector<Edge> edges;
    std::uint64_t digest = kFlightDigestSeed;
    std::vector<std::uint64_t> digests;  ///< per edge; flight only

    /// Edge \p i's digest (kFlightDigestSeed when the round has none).
    std::uint64_t edge_digest(std::size_t i) const {
      return i < digests.size() ? digests[i] : kFlightDigestSeed;
    }
  };

  /// Recorded rounds since construction (or the last reset_stats()), one
  /// per deliver() call — empty rounds included, so indices align with
  /// the pipeline's barrier structure.  Recording stops (and
  /// rounds_truncated() starts counting) once the cumulative edge budget
  /// set by set_round_record_limit() is exhausted.
  const std::vector<Round>& rounds() const { return rounds_; }

  /// Rounds are recorded by default (they are small: one aggregated edge
  /// per communicating pair per round).  Off, deliver() does no recorder
  /// work at all, flight digests included.
  void set_record_rounds(bool on) { record_rounds_ = on; }

  /// Cap the cumulative number of recorded edges across all rounds
  /// (default 1M ≈ 24 MB worst case, 32 MB with flight digests).
  /// Recording stops permanently at the first round that exceeds the
  /// budget — rounds() is always a contiguous prefix of the round
  /// sequence (no interior gaps), and every dropped round from then on is
  /// counted by rounds_truncated(), so reports can say "N rounds not
  /// recorded" instead of lying by omission.  Critical-path aggregation
  /// (critical_path()) is unaffected by the cap.
  void set_round_record_limit(std::size_t max_edges) {
    round_record_limit_ = max_edges;
  }

  /// Number of deliver() rounds dropped by the edge budget (0 unless a
  /// long run exhausted it).
  std::uint64_t rounds_truncated() const { return rounds_truncated_; }

  /// Flight recording: every recorded round also carries its digests
  /// (see Round).  Off by default; when off the per-message cost is one
  /// predictable branch (same discipline as the disabled-span guard in
  /// obs/trace.hpp).
  void set_flight_recording(bool on) { flight_record_ = on; }
  bool flight_recording() const { return flight_record_; }

  /// Process-wide default for flight recording, read once per SimComm
  /// constructor.  Lets `--flight` on a bench reach the communicators that
  /// run_balance() constructs internally.  Engine-level: set from the
  /// orchestrating thread before the runs start.
  static void set_flight_default(bool on);
  static bool flight_default();

  /// Phase label attributed to subsequent deliver() rounds and collectives
  /// in the critical-path accounting.  Engine-level: call from the
  /// orchestrating thread only (the pipelines bracket their comm steps,
  /// e.g. "balance/notify", and restore the previous label on exit).
  void set_phase(std::string name) {
    phase_ = std::move(name);
    // Memory accounting folds its per-phase peaks at the same barriers the
    // critical-path profiler does, so the two phase breakdowns line up.
    obs::mem_set_phase(phase_);
  }
  const std::string& phase() const { return phase_; }

  /// Per-phase critical-path summary: for each phase label, the number of
  /// rounds and collectives charged, the modeled wall clock (Σ per-round
  /// critical-rank times + collective times), the Σ of per-round means,
  /// the total slack, and how many rounds each rank bounded.  The sum of
  /// time over phases equals modeled_time() (up to fp association), which
  /// is what ties the profiler to the BalanceReport phase times.
  struct PhaseCost {
    std::string name;
    std::uint64_t rounds = 0;       ///< deliver() barriers in this phase
    std::uint64_t collectives = 0;  ///< collective charges in this phase
    double time = 0;       ///< Σ critical-rank round times + collectives
    double mean_time = 0;  ///< Σ mean-over-ranks round times + collectives
    double slack = 0;      ///< Σ per-round total slack
    std::vector<std::uint64_t> critical_by_rank;  ///< rounds bounded, per rank
    /// Aggregate imbalance: modeled wall clock over the perfectly balanced
    /// wall clock (max/mean convention, matching obs::Reduction).
    double imbalance() const { return mean_time > 0 ? time / mean_time : 0; }
  };

  /// Phases in first-charge order.  Deterministic for any thread count:
  /// phase labels are set from the orchestrating thread and every cost is
  /// a pure function of the (normalized) message multiset.
  const std::vector<PhaseCost>& critical_path() const { return phases_; }

  /// Wall-clock seconds this communicator has spent inside deliver()
  /// (the serial barrier work); pipelines subtract it from phase wall
  /// times so CPU attribution excludes barrier time.
  double barrier_seconds() const { return barrier_seconds_; }

  /// Modeled communication time so far: sum over delivery rounds of the
  /// per-rank critical path (max over ranks of that round's α–β cost).
  double modeled_time() const { return modeled_time_; }

  const CostModel& cost_model() const { return model_; }

  /// Reset counters (not pending messages) between benchmark phases.
  void reset_stats();

  /// Failure injection: deliver each inbox in a pseudo-random order instead
  /// of the deterministic (sender, post order) one.  Real MPI makes no
  /// ordering guarantee across senders; algorithms built on SimComm must
  /// not depend on it, and the test suite and the audit fuzzer
  /// (src/audit) run the full balance pipeline under scrambling to prove
  /// they do not.  The seed is retained so a failing run can be replayed
  /// with the identical delivery schedule.
  void set_scramble(std::uint64_t seed) {
    scramble_ = true;
    scramble_seed_ = seed;
    scramble_state_ = seed | 1;
  }

  bool scrambled() const { return scramble_; }

  /// The seed passed to set_scramble() (meaningful only when scrambled()).
  std::uint64_t scramble_seed() const { return scramble_seed_; }

 private:
  void charge_collective(std::size_t total_bytes);

  /// The phase aggregate for the current label, created on first charge.
  PhaseCost& phase_cost();

  struct Pending {
    int from;
    int to;
    std::vector<std::uint8_t> data;
  };

  std::vector<std::vector<Pending>> outbox_;      // per source rank
  std::vector<std::vector<SimMessage>> inbox_;    // per destination rank
  std::unique_ptr<std::mutex[]> send_mu_;         // one per source rank
  CommStats stats_;
  CostModel model_;
  double modeled_time_ = 0.0;
  bool scramble_ = false;
  std::uint64_t scramble_seed_ = 0;
  std::uint64_t scramble_state_ = 0;
  std::unique_ptr<obs::Metrics> metrics_;
  std::vector<Round> rounds_;
  bool record_rounds_ = true;
  bool flight_record_ = false;
  std::size_t round_record_limit_ = 1u << 20;  ///< cumulative edge budget
  std::size_t recorded_edges_ = 0;
  std::size_t recorded_digests_ = 0;
  std::uint64_t rounds_truncated_ = 0;
  std::string phase_ = "run";
  std::vector<PhaseCost> phases_;  ///< first-charge order
  double barrier_seconds_ = 0.0;
  // Memory accounting (obs/mem.hpp).  Mailbox bytes are charged per rank
  // slot by send/deliver/recv_all (free-function charges: in-flight
  // payloads, attributed to the sender until delivery and the receiver
  // after).  The round record is an engine-level capacity.
  obs::MemScope rounds_mem_;  ///< recorded rounds (kFlightRecorder)
  // Cached registry entries for the delivery loop (lookup is mutexed).
  obs::Counter* c_msgs_sent_ = nullptr;
  obs::Counter* c_bytes_sent_ = nullptr;
  obs::Counter* c_msgs_recv_ = nullptr;
  obs::Counter* c_bytes_recv_ = nullptr;
  obs::Counter* c_critical_rounds_ = nullptr;
  obs::Counter* c_rounds_ = nullptr;
  obs::Histogram* h_msg_bytes_ = nullptr;
};

}  // namespace octbal
