// Property tests for the LSD radix kernel (util/radix_sort.h): every
// entry point is compared against std::sort / std::stable_sort on
// adversarial inputs — negative ints, all-equal keys, presorted and
// reversed runs, heavy duplicates — at sizes straddling both the tiny
// std::stable_sort cutoff and the sequential/parallel cutoff, across
// several thread counts. Output must be bit-identical in every case.
#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "storage/string_pool.h"
#include "stress/stress_support.h"
#include "table/key_normalize.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;

// Thread counts for the property sweep (oversubscribed on small machines,
// which is the point: partitioning must not change the output).
const std::vector<int> kThreadCounts = {1, 2, 4, 8};

// Sizes straddling kRadixTinyCutoff (256) and kRadixSeqCutoff (1 << 14).
const std::vector<int64_t> kSizes = {0,    1,     2,     255,       256,
                                     257,  5000,  16384, 16385,     50000};

enum class Pattern {
  kRandom64,     // Full-range 64-bit values.
  kRandomSmall,  // Heavy duplicates (values mod 17).
  kAllEqual,
  kSorted,
  kReversed,
};

const std::vector<Pattern> kPatterns = {Pattern::kRandom64,
                                        Pattern::kRandomSmall,
                                        Pattern::kAllEqual, Pattern::kSorted,
                                        Pattern::kReversed};

std::vector<uint64_t> MakeKeys(int64_t n, Pattern p, uint64_t seed) {
  SplitMix64 mix(seed);
  std::vector<uint64_t> v(n);
  for (int64_t i = 0; i < n; ++i) v[i] = mix();
  switch (p) {
    case Pattern::kRandom64:
      break;
    case Pattern::kRandomSmall:
      for (uint64_t& x : v) x %= 17;
      break;
    case Pattern::kAllEqual:
      std::fill(v.begin(), v.end(), uint64_t{0x5EED});
      break;
    case Pattern::kSorted:
      std::sort(v.begin(), v.end());
      break;
    case Pattern::kReversed:
      std::sort(v.begin(), v.end(), std::greater<>());
      break;
  }
  return v;
}

TEST(RadixKeyTest, Int64KeyPreservesOrder) {
  const std::vector<int64_t> ordered = {
      std::numeric_limits<int64_t>::min(), -1000000007, -2, -1, 0, 1, 2,
      1000000007, std::numeric_limits<int64_t>::max()};
  for (size_t i = 1; i < ordered.size(); ++i) {
    EXPECT_LT(radix::Int64Key(ordered[i - 1]), radix::Int64Key(ordered[i]))
        << ordered[i - 1] << " vs " << ordered[i];
  }
}

TEST(RadixKeyTest, FloatKeyPreservesOrder) {
  const std::vector<double> ordered = {
      -std::numeric_limits<double>::infinity(), -1e300, -1.5, -1e-300,
      0.0, 1e-300, 1.5, 1e300, std::numeric_limits<double>::infinity()};
  for (size_t i = 1; i < ordered.size(); ++i) {
    EXPECT_LT(radix::FloatKey(ordered[i - 1]), radix::FloatKey(ordered[i]))
        << ordered[i - 1] << " vs " << ordered[i];
  }
}

TEST(RadixKeyTest, FloatKeyCollapsesNegativeZero) {
  EXPECT_EQ(radix::FloatKey(-0.0), radix::FloatKey(0.0));
}

// Regression: FloatKey used to pass NaN bits through the sign-flip
// transform, so negative-sign NaNs keyed *below* -inf while positive ones
// keyed above +inf — the radix path then disagreed with the comparison
// path about where NaN rows land. Every NaN (any sign, any payload) must
// map to the one canonical key above +inf's.
TEST(RadixKeyTest, FloatKeyCanonicalizesEveryNan) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  // A quiet NaN with a nonzero extra payload, built from raw bits.
  uint64_t payload_bits = 0x7FF8000000000000ull | 0xDEADBEEFull;
  double payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));

  const double nans[] = {qnan, -qnan, snan, -snan, payload_nan,
                         -payload_nan};
  for (const double n : nans) {
    EXPECT_EQ(radix::FloatKey(n), radix::kFloatNanKey) << n;
  }
  // NaN-last: strictly above +inf, which is itself the largest non-NaN.
  EXPECT_LT(radix::FloatKey(std::numeric_limits<double>::infinity()),
            radix::kFloatNanKey);
  EXPECT_LT(radix::FloatKey(std::numeric_limits<double>::max()),
            radix::kFloatNanKey);
}

TEST(RadixSortTest, U64MatchesStdSort) {
  for (int tc : kThreadCounts) {
    ScopedNumThreads threads(tc);
    for (int64_t n : kSizes) {
      for (Pattern p : kPatterns) {
        std::vector<uint64_t> v = MakeKeys(n, p, 0xABCD + n);
        std::vector<uint64_t> expected = v;
        std::sort(expected.begin(), expected.end());
        RadixSortU64(v);
        ASSERT_EQ(v, expected) << "tc=" << tc << " n=" << n;
      }
    }
  }
}

TEST(RadixSortTest, I64MatchesStdSortOnNegatives) {
  for (int tc : kThreadCounts) {
    ScopedNumThreads threads(tc);
    for (int64_t n : kSizes) {
      for (Pattern p : kPatterns) {
        std::vector<uint64_t> raw = MakeKeys(n, p, 0xBEEF + n);
        std::vector<int64_t> v(raw.begin(), raw.end());  // Mixed signs.
        std::vector<int64_t> expected = v;
        std::sort(expected.begin(), expected.end());
        RadixSortI64(v);
        ASSERT_EQ(v, expected) << "tc=" << tc << " n=" << n;
      }
    }
  }
}

TEST(RadixSortTest, I64PairsMatchStdSort) {
  for (int tc : kThreadCounts) {
    ScopedNumThreads threads(tc);
    for (int64_t n : kSizes) {
      SplitMix64 mix(0xCAFE + n);
      std::vector<std::pair<int64_t, int64_t>> v(n);
      for (auto& e : v) {
        // Small ranges force duplicate firsts, exercising the minor word;
        // subtraction mixes in negatives.
        e.first = static_cast<int64_t>(mix() % 64) - 32;
        e.second = static_cast<int64_t>(mix() % 64) - 32;
      }
      std::vector<std::pair<int64_t, int64_t>> expected = v;
      std::sort(expected.begin(), expected.end());
      RadixSortI64Pairs(v.data(), n);
      ASSERT_EQ(v, expected) << "tc=" << tc << " n=" << n;
    }
  }
}

TEST(RadixSortTest, KeyRowsAreStable) {
  for (int tc : kThreadCounts) {
    ScopedNumThreads threads(tc);
    for (int64_t n : kSizes) {
      for (Pattern p : kPatterns) {
        const std::vector<uint64_t> keys = MakeKeys(n, p, 0xF00D + n);
        std::vector<KeyRow> v(n);
        for (int64_t i = 0; i < n; ++i) v[i] = {keys[i], i};
        std::vector<KeyRow> expected = v;
        std::stable_sort(
            expected.begin(), expected.end(),
            [](const KeyRow& a, const KeyRow& b) { return a.key < b.key; });
        RadixSortKeyRows(v.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(v[i].key, expected[i].key) << "tc=" << tc << " n=" << n;
          ASSERT_EQ(v[i].row, expected[i].row) << "tc=" << tc << " n=" << n;
        }
      }
    }
  }
}

TEST(RadixSortTest, KeyRows2SortByHiThenLoStably) {
  for (int tc : kThreadCounts) {
    ScopedNumThreads threads(tc);
    for (int64_t n : kSizes) {
      SplitMix64 mix(0xD1CE + n);
      std::vector<KeyRow2> v(n);
      for (int64_t i = 0; i < n; ++i) {
        v[i] = {mix() % 8, mix() % 8, i};  // Heavy ties on both words.
      }
      std::vector<KeyRow2> expected = v;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const KeyRow2& a, const KeyRow2& b) {
                         return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
                       });
      RadixSortKeyRows2(v.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(v[i].hi, expected[i].hi) << "tc=" << tc << " n=" << n;
        ASSERT_EQ(v[i].lo, expected[i].lo) << "tc=" << tc << " n=" << n;
        ASSERT_EQ(v[i].row, expected[i].row) << "tc=" << tc << " n=" << n;
      }
    }
  }
}

TEST(ByteOrderRanksTest, RanksFollowByteOrderNotInterningOrder) {
  StringPool pool;
  // Interned deliberately out of byte order.
  const std::vector<std::string> strs = {"pear", "apple", "zebra", "",
                                         "apples", "Pear", "banana"};
  std::vector<StringPool::Id> ids;
  for (const std::string& s : strs) ids.push_back(pool.GetOrAdd(s));

  const std::vector<uint32_t> ranks = internal::ByteOrderRanks(pool);
  ASSERT_EQ(ranks.size(), strs.size());
  std::vector<std::string> sorted = strs;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < strs.size(); ++i) {
    const size_t want =
        std::lower_bound(sorted.begin(), sorted.end(), strs[i]) -
        sorted.begin();
    EXPECT_EQ(ranks[ids[i]], want) << strs[i];
  }
}

}  // namespace
}  // namespace ringo
