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
  /// (sender, post order) order).
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

  /// One deliver() round's sparse send/recv matrix: who sent how much to
  /// whom, aggregated per (from, to) edge and sorted by it.
  struct RoundEntry {
    std::int32_t from = 0;
    std::int32_t to = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  struct Round {
    std::vector<RoundEntry> entries;
    CommStats total;  ///< sums over the entries
    /// Critical-path attribution of this round (see critical_path()): the
    /// rank whose α–β cost bounds the round (-1 when nothing moved; lowest
    /// rank on ties), its modeled time, the mean over all ranks, and the
    /// total slack Σ_r (critical_time - time_r).
    std::int32_t critical_rank = -1;
    double critical_time = 0;
    double mean_time = 0;
    double slack = 0;
    std::string phase;  ///< phase label active when the round delivered
  };

  /// Per-round matrices since construction (or the last reset_stats()),
  /// one entry per deliver() call — empty rounds included, so indices
  /// align with the pipeline's barrier structure.  Recording stops (and
  /// rounds_truncated() starts counting) once the cumulative edge budget
  /// set by set_round_record_limit() is exhausted.
  const std::vector<Round>& rounds() const { return rounds_; }

  /// Matrices are recorded by default (they are small: one aggregated
  /// edge per communicating pair per round); disable for huge runs.
  void set_record_rounds(bool on) { record_rounds_ = on; }

  /// Cap the cumulative number of recorded (from, to) edges across all
  /// rounds (default 1M ≈ 24 MB worst case).  Recording stops permanently
  /// at the first round that exceeds the budget — rounds() is always a
  /// contiguous prefix of the round sequence (no interior gaps), and every
  /// dropped round from then on is counted by rounds_truncated(), so
  /// reports can say "N rounds not recorded" instead of lying by omission.
  /// Critical-path aggregation (critical_path()) is unaffected by the cap.
  void set_round_record_limit(std::size_t max_entries) {
    round_record_limit_ = max_entries;
  }

  /// Number of deliver() rounds whose matrix was dropped by the record
  /// limit (0 unless a long run exhausted the edge budget).
  std::uint64_t rounds_truncated() const { return rounds_truncated_; }

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
  void set_cost_model(const CostModel& m) { model_ = m; }

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

  /// Back to deterministic (sender, post order) delivery.
  void clear_scramble() { scramble_ = false; }

  bool scrambled() const { return scramble_; }

  /// The seed passed to set_scramble() (meaningful only when scrambled()).
  std::uint64_t scramble_seed() const { return scramble_seed_; }

  /// FNV-1a 64-bit offset basis: the seed of every flight digest chain.
  static constexpr std::uint64_t kFlightDigestSeed = 0xcbf29ce484222325ull;

  /// One (from, to) edge of a flight-recorded round: aggregate counts plus
  /// an order-sensitive 64-bit digest chained over the edge's payloads in
  /// delivery order (FNV-1a over each message's length then bytes).  The
  /// chain runs over the *canonical* outbox walk, before any inbox
  /// scramble, so digests are byte-identical for any thread count and any
  /// delivery-order injection — two runs' flights differ only where the
  /// traffic itself differs.
  struct FlightEdge {
    std::int32_t from = 0;
    std::int32_t to = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t digest = kFlightDigestSeed;
    /// Captured payload prefix (concatenated message bytes, in delivery
    /// order) — empty unless a payload budget was set; shorter than
    /// bytes when the budget ran out mid-edge.
    std::vector<std::uint8_t> payload;
  };

  /// One deliver() round of the flight log.  Edges are sorted by
  /// (from, to); the round digest folds every edge's identity and digest,
  /// so two rounds are content-identical iff their digests match (modulo
  /// 64-bit collisions).
  struct FlightRound {
    std::string phase;  ///< phase label active when the round delivered
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t digest = kFlightDigestSeed;
    std::vector<FlightEdge> edges;
  };

  /// Enable the flight recorder: every subsequent deliver() appends a
  /// FlightRound (empty rounds included, so indices align with rounds()
  /// and the pipeline's barrier structure).  Off by default; when off the
  /// per-message cost is one predictable branch (same discipline as the
  /// disabled-span guard in obs/trace.hpp).
  void set_flight_recording(bool on) { flight_record_ = on; }
  bool flight_recording() const { return flight_record_; }

  /// Cap the cumulative number of recorded flight edges across all rounds
  /// (default 1M, mirroring set_round_record_limit()).  Recording stops
  /// permanently at the first round that exceeds the budget, so flight()
  /// is always a contiguous prefix; every round dropped from then on is
  /// counted by flight_truncated().
  void set_flight_record_limit(std::size_t max_edges) {
    flight_record_limit_ = max_edges;
  }

  /// Cap the cumulative payload bytes captured into FlightEdge::payload
  /// (default 0: digests only).  Capture stops mid-message when the
  /// budget runs out; counts and digests are never affected.
  void set_flight_payload_limit(std::size_t max_bytes) {
    flight_payload_limit_ = max_bytes;
  }

  /// The flight log since construction (or the last reset_stats()).
  const std::vector<FlightRound>& flight() const { return flight_; }

  /// Number of deliver() rounds dropped by the flight edge budget.
  std::uint64_t flight_truncated() const { return flight_truncated_; }

  /// Process-wide default for flight recording, read once per SimComm
  /// constructor.  Lets `--flight` on a bench reach the communicators that
  /// run_balance() constructs internally.  Engine-level: set from the
  /// orchestrating thread before the runs start.
  static void set_flight_default(bool on);
  static bool flight_default();

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
  std::size_t round_record_limit_ = 1u << 20;  ///< cumulative edge budget
  std::size_t recorded_entries_ = 0;
  std::uint64_t rounds_truncated_ = 0;
  std::vector<FlightRound> flight_;
  bool flight_record_ = false;
  std::size_t flight_record_limit_ = 1u << 20;  ///< cumulative edge budget
  std::size_t flight_recorded_edges_ = 0;
  std::uint64_t flight_truncated_ = 0;
  std::size_t flight_payload_limit_ = 0;  ///< cumulative captured bytes
  std::size_t flight_payload_used_ = 0;
  std::string phase_ = "run";
  std::vector<PhaseCost> phases_;  ///< first-charge order
  double barrier_seconds_ = 0.0;
  // Memory accounting (obs/mem.hpp).  Mailbox bytes are charged per rank
  // slot by send/deliver/recv_all (free-function charges: in-flight
  // payloads, attributed to the sender until delivery and the receiver
  // after).  The two recorder stores are engine-level capacities.
  obs::MemScope rounds_mem_;  ///< round matrices (kFlightRecorder)
  obs::MemScope flight_mem_;  ///< flight log + payloads (kFlightRecorder)
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
