#pragma once
/// \file block_primitives.hpp
/// Block-wide radix sorting. `radix_sort` is the kernel both backends run:
/// a stable LSD sort with pass-minimizing digit widths and caller-owned
/// scratch, so the steady state never touches the allocator. The GPU's
/// work is charged separately, in closed form: a CUB-style block radix
/// sort costs #keys × `radix_passes(bits)` 4-bit passes, which is where the
/// paper's dynamic bit reduction shows up. `block_radix_sort` executes that
/// 4-bit sort and charges it as it goes; it stays as the test oracle for
/// both the permutation and the charge.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace acs::sim {

/// Number of 4-bit radix passes needed to sort keys of `bits` significant
/// bits (the quantity the paper's bit reduction minimizes).
constexpr int radix_passes(int bits) { return (bits + 3) / 4; }

/// Reusable double-buffers for `radix_sort`. One instance per thread (the
/// ESC and merge workspaces hold one thread_local each); capacity persists
/// across calls.
template <class K, class V>
struct RadixSortScratch {
  std::vector<K> kbuf;
  std::vector<V> vbuf;
};

/// Widest radix digit a single pass may consume. 11 bits = 2048 counters
/// (16 KiB on the stack) — past that, zeroing and re-walking the histogram
/// costs more than it saves on the block-sized inputs ESC produces.
inline constexpr int kRadixMaxDigitBits = 11;

/// Stable LSD radix sort of (key, payload) pairs over the low `bits` key
/// bits, ascending. The permutation of a stable sort is unique, so any
/// digit width gives `block_radix_sort`'s order; the width used is the
/// smallest that achieves the minimum pass count
/// `ceil(bits / kRadixMaxDigitBits)`, keeping the histogram as small as the
/// pass budget allows (a key of ≤ 22 bits sorts in 2 passes where the
/// 4-bit sort takes 6).
template <class K, class V>
void radix_sort(std::span<K> keys, std::span<V> payload, int bits,
                RadixSortScratch<K, V>& scratch) {
  const std::size_t n = keys.size();
  if (n <= 1 || bits <= 0) return;
  const int passes = (bits + kRadixMaxDigitBits - 1) / kRadixMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const std::uint64_t digit_mask = (std::uint64_t{1} << digit_bits) - 1;
  const std::size_t buckets = std::size_t{1} << digit_bits;

  if (scratch.kbuf.size() < n) scratch.kbuf.resize(n);
  if (scratch.vbuf.size() < n) scratch.vbuf.resize(n);
  K* ksrc = keys.data();
  V* vsrc = payload.data();
  K* kdst = scratch.kbuf.data();
  V* vdst = scratch.vbuf.data();

  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit_bits;
    std::size_t count[std::size_t{1} << kRadixMaxDigitBits];
    std::fill(count, count + buckets, 0);
    for (std::size_t i = 0; i < n; ++i)
      count[(static_cast<std::uint64_t>(ksrc[i]) >> shift) & digit_mask]++;
    std::size_t run = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t d = count[b];
      count[b] = run;
      run += d;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto d = (static_cast<std::uint64_t>(ksrc[i]) >> shift) & digit_mask;
      kdst[count[d]] = ksrc[i];
      vdst[count[d]] = vsrc[i];
      ++count[d];
    }
    std::swap(ksrc, kdst);
    std::swap(vsrc, vdst);
  }
  if (ksrc != keys.data()) {
    std::copy(ksrc, ksrc + n, keys.data());
    std::copy(vsrc, vsrc + n, payload.data());
  }
}

/// Stable LSD radix sort of (key, payload) pairs over the low `bits` bits of
/// the keys, in 4-bit passes. Matches CUB's BlockRadixSort semantics:
/// stable, ascending, work ∝ #keys × #passes.
template <class K, class V>
void block_radix_sort(std::span<K> keys, std::span<V> payload, int bits,
                      MetricCounters& m) {
  const std::size_t n = keys.size();
  const int passes = radix_passes(bits);
  m.sort_pass_elements += static_cast<std::uint64_t>(n) *
                          static_cast<std::uint64_t>(std::max(passes, 0));
  if (n <= 1 || passes <= 0) return;

  std::vector<K> kbuf(n);
  std::vector<V> vbuf(n);
  K* ksrc = keys.data();
  V* vsrc = payload.data();
  K* kdst = kbuf.data();
  V* vdst = vbuf.data();

  for (int p = 0; p < passes; ++p) {
    const int shift = p * 4;
    std::size_t count[16] = {};
    for (std::size_t i = 0; i < n; ++i)
      count[(static_cast<std::uint64_t>(ksrc[i]) >> shift) & 0xF]++;
    std::size_t offset[16];
    std::size_t run = 0;
    for (int d = 0; d < 16; ++d) {
      offset[d] = run;
      run += count[d];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto d = (static_cast<std::uint64_t>(ksrc[i]) >> shift) & 0xF;
      kdst[offset[d]] = ksrc[i];
      vdst[offset[d]] = vsrc[i];
      ++offset[d];
    }
    std::swap(ksrc, kdst);
    std::swap(vsrc, vdst);
  }
  if (ksrc != keys.data()) {
    std::copy(ksrc, ksrc + n, keys.data());
    std::copy(vsrc, vsrc + n, payload.data());
  }
}

/// Significant bits of a non-negative value (0 → 0 bits).
constexpr int bits_for(std::uint64_t max_value) {
  int b = 0;
  while (max_value > 0) {
    ++b;
    max_value >>= 1;
  }
  return b;
}

}  // namespace acs::sim
