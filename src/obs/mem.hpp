#pragma once
/// \file mem.hpp
/// \brief Deterministic memory accounting: tagged live-byte counters and
/// high-water marks per subsystem, per simulated rank, per pipeline phase.
///
/// The accountant tracks *logical* capacity transitions — a sort charges
/// 2·n·sizeof(record) when it sizes its scratch, a hash set re-charges its
/// slot array when it grows, SimComm moves mailbox bytes from sender to
/// receiver at the (serial) deliver walk — never allocator behavior.  That
/// makes every figure a pure function of the input and the configuration:
/// byte-identical across thread counts and delivery scrambles (each rank's
/// charges land in its own slot, in its own program order).
///
/// Usage: install a MemSession around the region to measure; everything
/// the instrumented code charges while the session is live lands in its
/// accountant.  With no session installed every hook is one relaxed
/// atomic load and a branch; compiling with OCTBAL_OBS_DISABLE removes
/// the hooks entirely (all types below become empty inline no-ops).
///
///   obs::MemSession mem(ranks);
///   ... build forest, balance ...
///   obs::MemSnapshot m = mem.snapshot();   // peaks per tag/rank/phase
///
/// Attribution:
///  - MemScope (RAII) charges bytes for its lifetime; set() re-charges on
///    a capacity transition.  Copying a scope re-charges (copying a
///    Forest duly doubles the accounted leaf bytes); moving transfers.
///  - The charge lands in the slot bound to the calling thread (MemRank,
///    placed at the top of simulated-rank bodies), in an explicit slot,
///    or in the engine slot (index nranks) for unbound/serial work.
///  - Phases fold at MemAccountant::set_phase (serial, orchestrating
///    thread only); SimComm::set_phase forwards here, so the balance /
///    churn / ghost / partition phase labels arrive for free.
///
/// The "global peak" reported by a snapshot is the sum over slots of each
/// slot's own high-water mark.  A true max-over-time of the cross-slot sum
/// would depend on thread interleaving; the per-slot sum is a deterministic
/// upper bound on it and is what the goldens pin.

#include <cstdint>
#include <string>
#include <vector>

#ifndef OCTBAL_OBS_DISABLE
#include <atomic>
#endif

namespace octbal::obs {

class JsonWriter;

/// Subsystem tags.  Fixed enum (not strings) so the per-slot tables are
/// flat arrays and a charge is two atomic adds.
enum class MemTag : int {
  kSortScratch = 0,  ///< radix sort record buffers (core/sort.cpp)
  kLinearize,        ///< linearize/complete record + output buffers
  kHashSlots,        ///< OctantHashSet slot arrays (ctor size + grows)
  kInsulation,       ///< subtree-balance insulation working sets
  kSeeds,            ///< balance_seeds output + neighborhood buffers
  kForestLeaves,     ///< per-rank leaf arrays of a Forest
  kCommMailbox,      ///< SimComm in-flight message payloads
  kFlightRecorder,   ///< SimComm recorded rounds (edges + flight digests)
  kDirtyLog,         ///< Forest dirty-octant log
  kBalanceStaging,   ///< balance/delta query + response staging arrays
  kRepartition,      ///< repartition send staging (slices that move)
  kGhost,            ///< ghost-layer staging + per-rank ghost arrays
  kOther,
  kCount
};

constexpr int kMemTagCount = static_cast<int>(MemTag::kCount);

/// Stable short name of a tag ("sort_scratch", ...), used as JSON keys.
const char* mem_tag_name(MemTag tag);

/// Everything a finished (or in-flight) accounting session reports:
/// per-tag peaks (per rank slot + engine slot), per-phase peaks, and the
/// deterministic global peak.  Plain data — safe to copy into RunResult
/// and serialize long after the session ended.
struct MemSnapshot {
  int nranks = 0;  ///< simulated ranks; 0 = no session ran

  struct TagPeaks {
    MemTag tag = MemTag::kOther;
    std::vector<std::uint64_t> per_rank;  ///< per-slot high-water marks
    std::uint64_t engine = 0;             ///< engine-slot high-water mark
    std::uint64_t total = 0;              ///< sum of the above
  };
  std::vector<TagPeaks> tags;  ///< only tags that saw bytes, enum order

  struct PhasePeak {
    std::string phase;
    std::vector<std::uint64_t> per_rank;  ///< per-slot peak within the phase
    std::uint64_t engine = 0;
  };
  std::vector<PhasePeak> phases;  ///< first-entry order, repeats max-merged

  /// Sum over slots of each slot's all-tag high-water mark (see file
  /// comment for why this is the deterministic definition).
  std::uint64_t peak_bytes = 0;

  bool empty() const { return nranks == 0; }

  /// Canonical text form, for byte-identity assertions (threads,
  /// scrambles) and the audit battery's memory/thread_invariance check.
  std::string serialize() const;

  /// Emit as a JSON object value (call w.key("memory") first).  \p leaves
  /// adds the bytes_per_leaf ratio when nonzero.
  void to_json(JsonWriter& w, std::uint64_t leaves = 0) const;
};

#ifndef OCTBAL_OBS_DISABLE

/// The per-session ledger: nranks rank slots plus one engine slot, each
/// holding live/peak bytes per tag.  Concurrent charges are safe (relaxed
/// atomics) but determinism relies on the same per-rank-slot discipline
/// the metrics registry uses: a rank body only touches its own slot, and
/// engine-slot charges happen on serial paths.
class MemAccountant {
 public:
  explicit MemAccountant(int nranks);
  MemAccountant(const MemAccountant&) = delete;
  MemAccountant& operator=(const MemAccountant&) = delete;
  ~MemAccountant();

  int nranks() const { return nranks_; }
  std::uint64_t id() const { return id_; }

  /// \p slot in [0, nranks) is a rank slot; anything else (including the
  /// kEngineSlot sentinel) lands in the engine slot.
  void charge(int slot, MemTag tag, std::uint64_t bytes);
  void release(int slot, MemTag tag, std::uint64_t bytes);  ///< saturating

  /// Fold the per-slot in-phase peaks into the current phase entry and
  /// open \p name.  Serial: call from the orchestrating thread only,
  /// between parallel regions (SimComm::set_phase forwards here).
  void set_phase(const std::string& name);
  const std::string& phase() const { return cur_phase_; }

  /// Pure: folds the open phase into the returned copy without touching
  /// accountant state, so a session can be snapshotted mid-flight.
  MemSnapshot snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> live[kMemTagCount] = {};
    std::atomic<std::uint64_t> peak[kMemTagCount] = {};
    std::atomic<std::uint64_t> live_total{0};
    std::atomic<std::uint64_t> peak_total{0};
    std::atomic<std::uint64_t> peak_in_phase{0};
  };
  struct PhaseEntry {
    std::string name;
    std::vector<std::uint64_t> peak;  ///< one per slot (ranks + engine)
  };

  int slot_count() const { return nranks_ + 1; }
  PhaseEntry& phase_entry(std::vector<PhaseEntry>& phases,
                          const std::string& name) const;

  int nranks_;
  std::uint64_t id_;  ///< globally unique; stale-scope releases check it
  std::vector<Slot> slots_;
  std::vector<PhaseEntry> phases_;  ///< closed phases, first-entry order
  std::string cur_phase_ = "run";
};

namespace detail {
/// The installed accountant (null = accounting off).  Sessions install /
/// restore from the orchestrating thread; hooks load-acquire once.
extern std::atomic<MemAccountant*> g_mem_acct;
/// Per-thread rank-slot binding (-1 = unbound -> engine slot).
extern thread_local int t_mem_slot;
}  // namespace detail

/// True while a MemSession is live (one relaxed load).
inline bool mem_enabled() {
  return detail::g_mem_acct.load(std::memory_order_acquire) != nullptr;
}

/// Explicit-slot sentinel for the engine slot.
constexpr int kMemEngineSlot = -2;
/// Explicit-slot sentinel meaning "use the calling thread's binding".
constexpr int kMemBoundSlot = -1;

/// Unpaired charge/release against the installed accountant, for
/// ownership-transfer accounting (SimComm mailboxes).  Releases saturate,
/// so bytes charged under an earlier session can never underflow a later
/// one.  No-ops when no session is installed.
void mem_charge(int slot, MemTag tag, std::uint64_t bytes);
void mem_release(int slot, MemTag tag, std::uint64_t bytes);

/// Forward a phase label to the installed accountant (serial contexts
/// only); no-op when no session is installed.
void mem_set_phase(const std::string& name);
/// The installed accountant's open phase label ("" when none is installed).
std::string mem_phase();

/// RAII rank-slot binding.  Place at the top of a simulated-rank body so
/// the kernels it calls attribute their scratch to that rank.  Restores
/// the previous binding (bindings nest).
class MemRank {
 public:
  explicit MemRank(int rank) : prev_(detail::t_mem_slot) {
    detail::t_mem_slot = rank;
  }
  MemRank(const MemRank&) = delete;
  MemRank& operator=(const MemRank&) = delete;
  ~MemRank() { detail::t_mem_slot = prev_; }

 private:
  int prev_;
};

/// RAII byte charge.  Charges against the accountant installed at charge
/// time and remembers (accountant, id, slot); the release is dropped when
/// that session is no longer the installed one, so a scope can safely
/// outlive its session (e.g. a Forest member living across benches).
class MemScope {
 public:
  MemScope() = default;
  MemScope(MemTag tag, std::uint64_t bytes) { acquire(kMemBoundSlot, tag, bytes); }
  MemScope(int slot, MemTag tag, std::uint64_t bytes) {
    acquire(slot, tag, bytes);
  }
  /// Copying re-charges the same (slot, tag, bytes) under the *current*
  /// accountant: a copied container duly doubles the accounted footprint.
  MemScope(const MemScope& o) { acquire(o.want_slot_, o.tag_, o.bytes_); }
  MemScope& operator=(const MemScope& o) {
    if (this != &o) {
      reset();
      acquire(o.want_slot_, o.tag_, o.bytes_);
    }
    return *this;
  }
  MemScope(MemScope&& o) noexcept { steal(o); }
  MemScope& operator=(MemScope&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  ~MemScope() { reset(); }

  /// Re-charge with the same slot binding and tag (capacity transition).
  void set(MemTag tag, std::uint64_t bytes) {
    reset();
    acquire(kMemBoundSlot, tag, bytes);
  }
  /// Re-charge in an explicit slot (rank index, or kMemEngineSlot).
  void set_slot(int slot, MemTag tag, std::uint64_t bytes) {
    reset();
    acquire(slot, tag, bytes);
  }

  /// Release the charge and go empty.
  void reset();

  std::uint64_t bytes() const { return bytes_; }

 private:
  void acquire(int want_slot, MemTag tag, std::uint64_t bytes);
  void steal(MemScope& o) {
    acct_ = o.acct_;
    id_ = o.id_;
    slot_ = o.slot_;
    want_slot_ = o.want_slot_;
    tag_ = o.tag_;
    bytes_ = o.bytes_;
    o.acct_ = nullptr;
    o.bytes_ = 0;
  }

  MemAccountant* acct_ = nullptr;  ///< null = nothing charged
  std::uint64_t id_ = 0;
  int slot_ = 0;                ///< resolved slot the charge landed in
  int want_slot_ = kMemBoundSlot;  ///< requested slot (copies re-resolve)
  MemTag tag_ = MemTag::kOther;
  std::uint64_t bytes_ = 0;
};

/// RAII accounting session: installs a fresh accountant for \p nranks
/// simulated ranks, restores the previously installed one (sessions
/// stack) on destruction.  Construct and destroy on the orchestrating
/// thread, outside parallel regions.
class MemSession {
 public:
  explicit MemSession(int nranks);
  MemSession(const MemSession&) = delete;
  MemSession& operator=(const MemSession&) = delete;
  ~MemSession();

  MemAccountant& accountant() { return acct_; }
  void set_phase(const std::string& name) { acct_.set_phase(name); }
  MemSnapshot snapshot() const { return acct_.snapshot(); }

 private:
  MemAccountant acct_;
  MemAccountant* prev_;
};

#else  // OCTBAL_OBS_DISABLE: every hook compiles to nothing.

class MemAccountant {
 public:
  explicit MemAccountant(int) {}
  int nranks() const { return 0; }
  void charge(int, MemTag, std::uint64_t) {}
  void release(int, MemTag, std::uint64_t) {}
  void set_phase(const std::string&) {}
  MemSnapshot snapshot() const { return {}; }
};

inline bool mem_enabled() { return false; }

constexpr int kMemEngineSlot = -2;
constexpr int kMemBoundSlot = -1;

inline void mem_charge(int, MemTag, std::uint64_t) {}
inline void mem_release(int, MemTag, std::uint64_t) {}
inline void mem_set_phase(const std::string&) {}
inline std::string mem_phase() { return {}; }

class MemRank {
 public:
  explicit MemRank(int) {}
};

class MemScope {
 public:
  MemScope() = default;
  MemScope(MemTag, std::uint64_t) {}
  MemScope(int, MemTag, std::uint64_t) {}
  void set(MemTag, std::uint64_t) {}
  void set_slot(int, MemTag, std::uint64_t) {}
  void reset() {}
  std::uint64_t bytes() const { return 0; }
};

class MemSession {
 public:
  explicit MemSession(int) {}
  MemAccountant& accountant() { return acct_; }
  void set_phase(const std::string&) {}
  MemSnapshot snapshot() const { return {}; }

 private:
  MemAccountant acct_{0};
};

#endif  // OCTBAL_OBS_DISABLE

}  // namespace octbal::obs
