#include "obs/mem.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace octbal::obs {

const char* mem_tag_name(MemTag tag) {
  switch (tag) {
    case MemTag::kSortScratch: return "sort_scratch";
    case MemTag::kLinearize: return "linearize";
    case MemTag::kHashSlots: return "hash_slots";
    case MemTag::kInsulation: return "insulation";
    case MemTag::kSeeds: return "seeds";
    case MemTag::kForestLeaves: return "forest_leaves";
    case MemTag::kCommMailbox: return "comm_mailbox";
    case MemTag::kFlightRecorder: return "flight_recorder";
    case MemTag::kDirtyLog: return "dirty_log";
    case MemTag::kBalanceStaging: return "balance_staging";
    case MemTag::kRepartition: return "repartition";
    case MemTag::kGhost: return "ghost";
    case MemTag::kOther: return "other";
    case MemTag::kCount: break;
  }
  return "other";
}

std::string MemSnapshot::serialize() const {
  std::string s = "mem nranks=" + std::to_string(nranks) +
                  " peak_bytes=" + std::to_string(peak_bytes) + "\n";
  const auto per_rank_csv = [](const std::vector<std::uint64_t>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(v[i]);
    }
    return out;
  };
  for (const TagPeaks& t : tags) {
    s += "tag " + std::string(mem_tag_name(t.tag)) +
         " total=" + std::to_string(t.total) +
         " engine=" + std::to_string(t.engine) +
         " per_rank=" + per_rank_csv(t.per_rank) + "\n";
  }
  for (const PhasePeak& p : phases) {
    s += "phase " + p.phase + " engine=" + std::to_string(p.engine) +
         " per_rank=" + per_rank_csv(p.per_rank) + "\n";
  }
  return s;
}

void MemSnapshot::to_json(JsonWriter& w, std::uint64_t leaves) const {
  w.begin_object();
  w.kv("nranks", nranks);
  w.kv("peak_bytes", peak_bytes);
  if (leaves > 0) {
    // Exact ratio of two deterministic integers: machine-independent, so
    // the baseline diff pins it exactly like the counters.
    w.kv("bytes_per_leaf",
         static_cast<double>(peak_bytes) / static_cast<double>(leaves));
  }
  w.key("tags").begin_object();
  for (const TagPeaks& t : tags) {
    const Reduction r = reduce(t.per_rank);
    w.key(mem_tag_name(t.tag)).begin_object();
    w.kv("total", t.total);
    w.kv("engine", t.engine);
    w.kv("min", r.min);
    w.kv("max", r.max);
    w.kv("mean", r.mean);
    w.kv("imbalance", r.imbalance);
    w.key("per_rank").begin_array();
    for (const std::uint64_t v : t.per_rank) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("phases").begin_array();
  for (const PhasePeak& p : phases) {
    const Reduction r = reduce(p.per_rank);
    w.begin_object();
    w.kv("phase", p.phase);
    w.kv("engine", p.engine);
    w.kv("max", r.max);
    w.key("per_rank").begin_array();
    for (const std::uint64_t v : p.per_rank) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

#ifndef OCTBAL_OBS_DISABLE

namespace detail {
std::atomic<MemAccountant*> g_mem_acct{nullptr};
thread_local int t_mem_slot = -1;
}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_next_acct_id{1};

constexpr auto kRelaxed = std::memory_order_relaxed;

void cas_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(kRelaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v, kRelaxed)) {
  }
}

void sat_sub(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(kRelaxed);
  while (!a.compare_exchange_weak(cur, cur >= v ? cur - v : 0, kRelaxed)) {
  }
}

}  // namespace

MemAccountant::MemAccountant(int nranks)
    : nranks_(nranks < 0 ? 0 : nranks),
      id_(g_next_acct_id.fetch_add(1, kRelaxed)),
      slots_(static_cast<std::size_t>(nranks_ + 1)) {}

MemAccountant::~MemAccountant() = default;

void MemAccountant::charge(int slot, MemTag tag, std::uint64_t bytes) {
  if (bytes == 0) return;
  if (slot < 0 || slot >= nranks_) slot = nranks_;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  const int t = static_cast<int>(tag);
  cas_max(s.peak[t], s.live[t].fetch_add(bytes, kRelaxed) + bytes);
  const std::uint64_t total = s.live_total.fetch_add(bytes, kRelaxed) + bytes;
  cas_max(s.peak_total, total);
  cas_max(s.peak_in_phase, total);
}

void MemAccountant::release(int slot, MemTag tag, std::uint64_t bytes) {
  if (bytes == 0) return;
  if (slot < 0 || slot >= nranks_) slot = nranks_;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  sat_sub(s.live[static_cast<int>(tag)], bytes);
  sat_sub(s.live_total, bytes);
}

MemAccountant::PhaseEntry& MemAccountant::phase_entry(
    std::vector<PhaseEntry>& phases, const std::string& name) const {
  for (PhaseEntry& e : phases) {
    if (e.name == name) return e;
  }
  phases.push_back(
      {name, std::vector<std::uint64_t>(
                 static_cast<std::size_t>(slot_count()), 0)});
  return phases.back();
}

void MemAccountant::set_phase(const std::string& name) {
  PhaseEntry& e = phase_entry(phases_, cur_phase_);
  for (int i = 0; i < slot_count(); ++i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    e.peak[static_cast<std::size_t>(i)] =
        std::max(e.peak[static_cast<std::size_t>(i)],
                 s.peak_in_phase.load(kRelaxed));
    // The next phase starts from what is still live now, not from zero:
    // long-lived buffers stay on its floor.
    s.peak_in_phase.store(s.live_total.load(kRelaxed), kRelaxed);
  }
  cur_phase_ = name;
}

MemSnapshot MemAccountant::snapshot() const {
  MemSnapshot m;
  m.nranks = nranks_;
  const std::size_t n = static_cast<std::size_t>(nranks_);
  for (int t = 0; t < kMemTagCount; ++t) {
    MemSnapshot::TagPeaks tp;
    tp.tag = static_cast<MemTag>(t);
    tp.per_rank.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tp.per_rank[i] = slots_[i].peak[t].load(kRelaxed);
      tp.total += tp.per_rank[i];
    }
    tp.engine = slots_[n].peak[t].load(kRelaxed);
    tp.total += tp.engine;
    if (tp.total > 0) m.tags.push_back(std::move(tp));
  }
  // Fold the open phase into a copy so snapshotting is side-effect free.
  std::vector<PhaseEntry> phases = phases_;
  PhaseEntry& open = phase_entry(phases, cur_phase_);
  for (int i = 0; i < slot_count(); ++i) {
    open.peak[static_cast<std::size_t>(i)] =
        std::max(open.peak[static_cast<std::size_t>(i)],
                 slots_[static_cast<std::size_t>(i)].peak_in_phase.load(
                     kRelaxed));
  }
  for (PhaseEntry& e : phases) {
    MemSnapshot::PhasePeak pp;
    pp.phase = std::move(e.name);
    pp.per_rank.assign(e.peak.begin(), e.peak.begin() + nranks_);
    pp.engine = e.peak[n];
    m.phases.push_back(std::move(pp));
  }
  for (std::size_t i = 0; i <= n; ++i) {
    m.peak_bytes += slots_[i].peak_total.load(kRelaxed);
  }
  return m;
}

void mem_charge(int slot, MemTag tag, std::uint64_t bytes) {
  if (MemAccountant* a = detail::g_mem_acct.load(std::memory_order_acquire)) {
    a->charge(slot == kMemBoundSlot ? detail::t_mem_slot : slot, tag, bytes);
  }
}

void mem_release(int slot, MemTag tag, std::uint64_t bytes) {
  if (MemAccountant* a = detail::g_mem_acct.load(std::memory_order_acquire)) {
    a->release(slot == kMemBoundSlot ? detail::t_mem_slot : slot, tag, bytes);
  }
}

void mem_set_phase(const std::string& name) {
  if (MemAccountant* a = detail::g_mem_acct.load(std::memory_order_acquire)) {
    a->set_phase(name);
  }
}

std::string mem_phase() {
  const MemAccountant* a = detail::g_mem_acct.load(std::memory_order_acquire);
  return a != nullptr ? a->phase() : std::string();
}

void MemScope::acquire(int want_slot, MemTag tag, std::uint64_t bytes) {
  acct_ = nullptr;
  want_slot_ = want_slot;
  tag_ = tag;
  bytes_ = bytes;
  if (bytes == 0) return;
  MemAccountant* a = detail::g_mem_acct.load(std::memory_order_acquire);
  if (!a) return;
  int slot = want_slot == kMemBoundSlot ? detail::t_mem_slot : want_slot;
  if (slot < 0 || slot >= a->nranks()) slot = a->nranks();
  a->charge(slot, tag, bytes);
  acct_ = a;
  id_ = a->id();
  slot_ = slot;
}

void MemScope::reset() {
  if (acct_) {
    // Release only against the session the charge landed in; if that
    // session ended (or a different one is installed at the same
    // address), the release is dropped rather than corrupting a stranger.
    MemAccountant* cur = detail::g_mem_acct.load(std::memory_order_acquire);
    if (cur == acct_ && cur->id() == id_) cur->release(slot_, tag_, bytes_);
    acct_ = nullptr;
  }
  bytes_ = 0;
}

MemSession::MemSession(int nranks) : acct_(nranks) {
  prev_ = detail::g_mem_acct.exchange(&acct_, std::memory_order_acq_rel);
}

MemSession::~MemSession() {
  detail::g_mem_acct.store(prev_, std::memory_order_release);
}

#endif  // OCTBAL_OBS_DISABLE

}  // namespace octbal::obs
