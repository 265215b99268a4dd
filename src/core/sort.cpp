#include "core/sort.hpp"

#include <algorithm>

#include "obs/mem.hpp"

namespace octbal {

namespace {

using detail::kInsertionThreshold;
using detail::kRadixThreshold;
using detail::KeyRec;

template <int D>
void insertion_sort(std::vector<Octant<D>>& a) {
  for (std::size_t i = 1; i < a.size(); ++i) {
    Octant<D> v = a[i];
    std::size_t j = i;
    while (j > 0 && v < a[j - 1]) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = v;
  }
}

void insertion_sort_keys(std::vector<okey_t>& a) {
  for (std::size_t i = 1; i < a.size(); ++i) {
    const okey_t v = a[i];
    std::size_t j = i;
    while (j > 0 && key_less(v, a[j - 1])) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = v;
  }
}

/// Fused keyed sort: pack each octant into a pass record, run the scatter
/// passes over 16-byte records, and unpack during the final writeback — no
/// intermediate key vector, no separate conversion passes.
template <int D>
void sort_octants_keyed(std::vector<Octant<D>>& a) {
  const std::size_t n = a.size();
  const obs::MemScope scratch(obs::MemTag::kSortScratch,
                              2 * n * sizeof(KeyRec));
  std::vector<KeyRec> cur, tmp;
  cur.reserve(n);
  for (const Octant<D>& o : a) cur.push_back(detail::key_rec_of(o));
  detail::radix_sort_recs(cur, tmp, nullptr);
  for (std::size_t i = 0; i < n; ++i) a[i] = detail::rec_oct<D>(cur[i]);
}

}  // namespace

namespace detail {

void radix_sort_recs(std::vector<KeyRec>& cur, std::vector<KeyRec>& tmp,
                     RadixStats* stats) {
  const std::size_t n = cur.size();
  tmp.resize(n);
  // key_less order is (normalized key, width) lexicographic, and the width
  // = D*(level+2) fits one byte, so a stable width pass followed by
  // low-to-high passes over the normalized bytes reproduces Morton
  // preorder exactly.  One read
  // here builds every digit histogram (and the OR/AND degeneracy masks),
  // so each executed pass below touches the data exactly once, to scatter.
  std::size_t hist[9][256] = {};
  okey_t nrm_or = 0, nrm_and = ~okey_t{0};
  unsigned w_or = 0, w_and = 0xffu;
  for (const KeyRec& r : cur) {
    const unsigned w = static_cast<unsigned>(63 - std::countl_zero(r.key));
    ++hist[0][w];
    w_or |= w;
    w_and &= w;
    nrm_or |= r.norm;
    nrm_and &= r.norm;
    for (int b = 0; b < 8; ++b) ++hist[1 + b][(r.norm >> (8 * b)) & 0xffu];
  }

  const auto scatter_pass = [&](std::size_t* row, auto&& digit) {
    std::size_t sum = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::size_t c = row[b];
      row[b] = sum;
      sum += c;
    }
    for (const KeyRec& r : cur) tmp[row[digit(r)]++] = r;
    cur.swap(tmp);
  };

  if (w_or != w_and) {
    if (stats) ++stats->level_passes;
    scatter_pass(hist[0], [](const KeyRec& r) {
      return static_cast<std::size_t>(63 - std::countl_zero(r.key));
    });
  } else if (stats) {
    ++stats->skipped_passes;
  }
  for (int byte = 0; byte < 8; ++byte) {
    if (((nrm_or >> (8 * byte)) & 0xffu) == ((nrm_and >> (8 * byte)) & 0xffu)) {
      if (stats) ++stats->skipped_passes;
      continue;
    }
    if (stats) ++stats->key_passes;
    scatter_pass(hist[1 + byte], [byte](const KeyRec& r) {
      return static_cast<std::size_t>((r.norm >> (8 * byte)) & 0xffu);
    });
  }
}

}  // namespace detail

void sort_keys(std::vector<okey_t>& a, RadixStats* stats) {
  const std::size_t n = a.size();
  if (stats) stats->elements += n;
  if (n < kInsertionThreshold) {
    insertion_sort_keys(a);
    return;
  }
  if (n < kRadixThreshold) {
    std::sort(a.begin(), a.end(),
              [](okey_t x, okey_t y) { return key_less(x, y); });
    return;
  }
  const obs::MemScope scratch(obs::MemTag::kSortScratch,
                              2 * n * sizeof(KeyRec));
  std::vector<KeyRec> cur, tmp;
  cur.reserve(n);
  for (const okey_t k : a) cur.push_back({key_norm(k), k});
  detail::radix_sort_recs(cur, tmp, stats);
  for (std::size_t i = 0; i < n; ++i) a[i] = cur[i].key;
}

template <int D>
void sort_octants(std::vector<Octant<D>>& a) {
  // Below the radix regime insertion sort / std::sort is already optimal
  // and packing would be pure overhead; the order is identical either way.
  const std::size_t n = a.size();
  if (n < kInsertionThreshold) {
    insertion_sort(a);
  } else if (n < kRadixThreshold) {
    std::sort(a.begin(), a.end());
  } else {
    sort_octants_keyed(a);
  }
}

#define OCTBAL_INSTANTIATE(D) template void sort_octants<D>(std::vector<Octant<D>>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
