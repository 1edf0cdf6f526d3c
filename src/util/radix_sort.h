// Parallel LSD radix sort — the distribution-sort backbone behind the
// sort-first table→graph conversion (§2.4) and the sort-driven table
// operators (§2.3). Where ParallelSort (parallel.h) runs an indirect
// comparison per element, this kernel moves records by their key bytes:
// per-part histograms → exclusive prefix sums → contention-free scatter
// into a ping-pong buffer, one pass per non-constant key byte.
//
// Properties:
//   * stable: records with equal keys keep their input order, so sorting
//     (key, row) records with ascending row input yields the same
//     permutation as a comparison sort with a position tiebreak;
//   * deterministic for every thread count: parts write disjoint output
//     slices computed from prefix sums, so the output (and every
//     intermediate pass) is a pure function of the input;
//   * pass skipping: byte positions on which all keys agree (detected by
//     one OR/AND reduction) are skipped, so sorting 64-bit keys that fit
//     in 32 bits costs 4 scatter passes, not 8;
//   * sequential fallback below a cutoff (and a std::stable_sort leaf for
//     tiny inputs) — both produce bit-identical output to the parallel
//     path.
//
// Keys are uint64 words already normalized to unsigned order; the
// normalizations for signed ints and floats live here (Int64Key /
// FloatKey), the string-rank normalization lives in the table layer
// (table/key_normalize.h), which also documents when operators pick this
// kernel over the comparison sort.
#ifndef RINGO_UTIL_RADIX_SORT_H_
#define RINGO_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace ringo {

namespace radix {

// Order-preserving normalization of a signed int64 to unsigned key space:
// flipping the sign bit maps INT64_MIN..INT64_MAX onto 0..UINT64_MAX.
inline uint64_t Int64Key(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

// Order-preserving normalization of a double to total-order bits:
// positive values get the sign bit set, negative values are bitwise
// complemented (so more-negative sorts lower). -0.0 is collapsed onto
// +0.0 first, matching the comparison path where the two are equal. All
// NaNs (any payload, either sign) map to one canonical key above +inf's —
// the documented NaN-last total order: -inf < finite < +inf < NaN, every
// NaN equal. RowComparator implements the same order on the comparison
// path, so radix and comparator sorts agree on columns containing NaN.
// (No real double maps to the canonical key: it would need exponent and
// mantissa bits all set, which is itself a NaN pattern.)
inline constexpr uint64_t kFloatNanKey = ~uint64_t{0};
inline uint64_t FloatKey(double v) {
  if (std::isnan(v)) return kFloatNanKey;
  if (v == 0.0) v = 0.0;  // Collapse -0.0 onto +0.0.
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & (uint64_t{1} << 63)) ? ~bits : (bits | (uint64_t{1} << 63));
}

}  // namespace radix

namespace internal {

// Below this size the passes run on one part (no parallel regions).
constexpr int64_t kRadixSeqCutoff = 1 << 14;
// Below this size a std::stable_sort on the key words replaces the LSD
// machinery entirely (identical output, no histograms or scratch scans).
// The crossover is lower than it looks: with pass skipping, thousand-row
// inputs with narrow keys run 3-4 branchless scatter passes and beat the
// comparison sort well before the histograms amortize in theory.
constexpr int64_t kRadixTinyCutoff = 256;

// Core kernel: stable LSD sort of `data[0, n)` by W 64-bit key words.
// key_of(record, w) must return word w of the record's normalized key,
// w = 0 being the LEAST significant word. Records move through the
// ping-pong buffer by copy assignment and are never destroyed
// individually, so they must be trivially destructible and cheaply
// assignable (plain structs of scalars; std::pair of scalars qualifies
// despite its user-provided assignment operator).
//
// Returns the number of scatter passes executed (0 when the tiny-input
// stable_sort leaf ran) — the observability layer records it per sort.
template <int W, typename R, typename KeyFn>
int LsdRadixSort(R* data, int64_t n, KeyFn key_of) {
  static_assert(W >= 1);
  static_assert(std::is_trivially_destructible_v<R> &&
                    std::is_copy_assignable_v<R> &&
                    std::is_default_constructible_v<R>,
                "radix sort records must be POD-like");
  if (n <= 1) return 0;
  if (n <= kRadixTinyCutoff) {
    std::stable_sort(data, data + n, [&](const R& a, const R& b) {
      for (int w = W - 1; w >= 0; --w) {
        const uint64_t ka = key_of(a, w), kb = key_of(b, w);
        if (ka != kb) return ka < kb;
      }
      return false;
    });
    return 0;
  }

  const int parts = n <= kRadixSeqCutoff ? 1 : std::max(1, NumThreads());
  const std::vector<int64_t> bounds = PartitionRange(n, parts);

  // OR/AND reduction over all key words: byte positions where every key
  // agrees (or ^ and == 0 on that byte) are identity passes and skipped.
  uint64_t key_or[W], key_and[W];
  {
    std::vector<uint64_t> part_or(static_cast<size_t>(parts) * W, 0);
    std::vector<uint64_t> part_and(static_cast<size_t>(parts) * W,
                                   ~uint64_t{0});
    auto scan = [&](int64_t p) {
      uint64_t o[W], a[W];
      for (int w = 0; w < W; ++w) {
        o[w] = 0;
        a[w] = ~uint64_t{0};
      }
      for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
        for (int w = 0; w < W; ++w) {
          const uint64_t k = key_of(data[i], w);
          o[w] |= k;
          a[w] &= k;
        }
      }
      for (int w = 0; w < W; ++w) {
        part_or[p * W + w] = o[w];
        part_and[p * W + w] = a[w];
      }
    };
    if (parts == 1) {
      scan(0);
    } else {
      ParallelFor(0, parts, scan);
    }
    for (int w = 0; w < W; ++w) {
      key_or[w] = 0;
      key_and[w] = ~uint64_t{0};
    }
    for (int p = 0; p < parts; ++p) {
      for (int w = 0; w < W; ++w) {
        key_or[w] |= part_or[p * W + w];
        key_and[w] &= part_and[p * W + w];
      }
    }
  }

  // Scratch is written in full before it is read; default-init keeps
  // trivial record types uninitialized.
  std::unique_ptr<R[]> scratch(new R[n]);
  R* src = data;
  R* dst = scratch.get();
  std::vector<int64_t> hist(static_cast<size_t>(parts) * 256);
  int passes_run = 0;

  for (int pass = 0; pass < 8 * W; ++pass) {
    const int w = pass / 8;
    const int shift = 8 * (pass % 8);
    if ((((key_or[w] ^ key_and[w]) >> shift) & 0xFF) == 0) continue;
    ++passes_run;

    // Per-part histograms of this pass's digit.
    std::fill(hist.begin(), hist.end(), 0);
    auto count = [&](int64_t p) {
      int64_t* h = &hist[p * 256];
      for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
        ++h[(key_of(src[i], w) >> shift) & 0xFF];
      }
    };
    if (parts == 1) {
      count(0);
    } else {
      ParallelFor(0, parts, count);
    }

    // Exclusive prefix sums, digit-major then part-major, turn the counts
    // into each part's first write position per digit. Every (part, digit)
    // output slice is disjoint, so the scatter below is contention-free.
    int64_t sum = 0;
    for (int d = 0; d < 256; ++d) {
      for (int p = 0; p < parts; ++p) {
        int64_t& h = hist[p * 256 + d];
        const int64_t c = h;
        h = sum;
        sum += c;
      }
    }

    auto scatter = [&](int64_t p) {
      int64_t* off = &hist[p * 256];
      for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
        dst[off[(key_of(src[i], w) >> shift) & 0xFF]++] = src[i];
      }
    };
    if (parts == 1) {
      scatter(0);
    } else {
      ParallelFor(0, parts, scatter);
    }
    std::swap(src, dst);
  }

  if (src != data) {
    auto copy_back = [&](int64_t p) {
      std::copy(src + bounds[p], src + bounds[p + 1], data + bounds[p]);
    };
    if (parts == 1) {
      copy_back(0);
    } else {
      ParallelFor(0, parts, copy_back);
    }
  }
  return passes_run;
}

}  // namespace internal

// (key, payload) record: sorted by key, input order preserved on ties —
// with row = 0..n-1 on input this is exactly the comparison sort with a
// position tiebreak.
struct KeyRow {
  uint64_t key;
  int64_t row;
};

// Two-word composite (hi major, lo minor) + payload.
struct KeyRow2 {
  uint64_t hi;
  uint64_t lo;
  int64_t row;
};

// Concrete entry points (radix_sort.cc). All are stable, deterministic
// for every thread count, and safe for n == 0.
void RadixSortU64(uint64_t* keys, int64_t n);
void RadixSortI64(int64_t* keys, int64_t n);          // Signed order.
void RadixSortI64Pairs(std::pair<int64_t, int64_t>* v,
                       int64_t n);                    // By (first, second).
void RadixSortKeyRows(KeyRow* v, int64_t n);
void RadixSortKeyRows2(KeyRow2* v, int64_t n);

inline void RadixSortU64(std::vector<uint64_t>& v) {
  RadixSortU64(v.data(), static_cast<int64_t>(v.size()));
}
inline void RadixSortI64(std::vector<int64_t>& v) {
  RadixSortI64(v.data(), static_cast<int64_t>(v.size()));
}

}  // namespace ringo

#endif  // RINGO_UTIL_RADIX_SORT_H_
