#pragma once
/// \file octant_hash.hpp
/// \brief Open-addressing hash set of octants with query instrumentation.
///
/// Both subtree balance algorithms (Section III) keep newly created octants
/// in a hash table; the paper's new algorithm claims roughly 3x fewer hash
/// queries than the old one.  The set therefore counts queries so the claim
/// can be measured (bench/bench_subtree).
///
/// The set stores packed keys (8-byte keys, key 0 as the empty sentinel,
/// tag bits in a parallel byte array) and has one API, on keys.  key_hash
/// mixes the (morton, level) pair of the octant a key encodes, so probe
/// sequences, slot positions, grow schedule, collect order and every
/// HashStats counter are those of an octant-valued table with the same
/// hash (pinned by the perf guards; tests/core_reference.hpp keeps the
/// octant-valued hash).

#include <cstdint>
#include <vector>

#include "core/key.hpp"
#include "obs/mem.hpp"

namespace octbal {

/// Statistics counters shared by hash sets and the balance algorithms.
struct HashStats {
  std::uint64_t queries = 0;  ///< insert/contains calls
  /// Slot inspections caused by queries — the paper's Section III collision
  /// metric.  Internal rehashing during growth re-probes every stored
  /// element; those probes say nothing about query-time collision behavior
  /// and are counted separately below.
  std::uint64_t probes = 0;
  std::uint64_t rehash_probes = 0;  ///< slot inspections during grow_keys()
};

namespace detail {

/// The splitmix64 finalizer.
inline std::uint64_t hash_mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace detail

/// Hash a packed key: the Morton code of its anchor and its level, mixed
/// through splitmix64.  The (morton, level) pair is that of the octant the
/// key encodes, so the hash is a function of the octant.
template <int D>
inline std::uint64_t key_hash(okey_t k) {
  return detail::hash_mix(key_morton<D>(k) ^
                          (static_cast<std::uint64_t>(key_level<D>(k)) << 58));
}

/// Open-addressing (linear probing) hash set of packed octant keys, plus
/// an optional per-entry tag bit (used to mark preclusion in Figure 7).
template <int D>
class OctantHashSet {
 public:
  explicit OctantHashSet(std::size_t expected = 16, HashStats* stats = nullptr)
      : stats_(stats) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.resize(cap, okey_t{0});
    key_tags_.resize(cap, 0);
    account(0);
  }

  /// Insert \p k; returns true if newly inserted.  Counts one query.
  bool insert(okey_t k) {
    count_query();
    std::size_t i = find_key_slot(k);
    if (keys_[i] != 0) return false;
    keys_[i] = k;
    ++size_;
    if (size_ * 2 > keys_.size()) grow_keys();
    return true;
  }

  /// Membership test.  Counts one query.
  bool contains(okey_t k) const {
    count_query();
    return keys_[find_key_slot(k)] != 0;
  }

  /// Set the tag bit on an element already in the set (no-op if absent).
  void tag(okey_t k) {
    const std::size_t i = find_key_slot(k);
    if (keys_[i] != 0) key_tags_[i] = 1;
  }

  bool is_tagged(okey_t k) const {
    const std::size_t i = find_key_slot(k);
    return keys_[i] != 0 && key_tags_[i] != 0;
  }

  std::size_t size() const { return size_; }

  /// Append all (optionally only untagged) elements to \p out, in slot
  /// order.
  void collect(std::vector<okey_t>& out, bool skip_tagged = false) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0 && !(skip_tagged && key_tags_[i] != 0)) {
        out.push_back(keys_[i]);
      }
    }
  }

 private:
  std::size_t find_key_slot(okey_t k) const {
    return find_key_slot(k, stats_ ? &stats_->probes : nullptr);
  }

  std::size_t find_key_slot(okey_t k, std::uint64_t* probes) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = key_hash<D>(k) & mask;
    while (keys_[i] != 0 && keys_[i] != k) {
      if (probes) ++*probes;
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow_keys() {
    std::vector<okey_t> old_keys;
    std::vector<std::uint8_t> old_tags;
    old_keys.swap(keys_);
    old_tags.swap(key_tags_);
    keys_.resize(old_keys.size() * 2, okey_t{0});
    key_tags_.resize(old_tags.size() * 2, 0);
    account(old_keys.size() * (sizeof(okey_t) + sizeof(std::uint8_t)));
    std::uint64_t* rehash = stats_ ? &stats_->rehash_probes : nullptr;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == 0) continue;
      std::size_t i = find_key_slot(old_keys[j], rehash);
      keys_[i] = old_keys[j];
      key_tags_[i] = old_tags[j];
    }
    account(0);
  }

  void count_query() const {
    if (stats_) ++stats_->queries;
  }

  /// Account the slot-array capacity (a logical transition: ctor sizing
  /// and every grow).  \p transient_extra adds the old array that is
  /// still live during a grow's rehash, so the rehash high-water is
  /// captured; the follow-up account(0) settles back to steady state.
  void account(std::size_t transient_extra) {
    const std::size_t bytes =
        keys_.size() * (sizeof(okey_t) + sizeof(std::uint8_t));
    mem_.set(obs::MemTag::kHashSlots, bytes + transient_extra);
  }

  std::vector<okey_t> keys_;            // 0 = empty
  std::vector<std::uint8_t> key_tags_;  // parallel tag bits
  std::size_t size_ = 0;
  HashStats* stats_ = nullptr;
  obs::MemScope mem_;                   // live slot-array bytes (kHashSlots)
};

}  // namespace octbal
