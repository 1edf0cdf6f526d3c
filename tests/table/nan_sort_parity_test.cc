// Sort parity on float columns containing NaN, ±inf, and ±0.0 — the
// regression suite for the FloatKey NaN-canonicalization fix.
//
// Before the fix, FloatKey passed NaN bits through the sign-flip
// transform: negative-sign NaNs keyed below -inf and positive ones above
// +inf, so the radix path scattered NaN rows to both ends while the
// comparison order (RowComparator) put them wherever operator< left them.
// Both now implement the same documented total order — -inf < finite <
// +inf < NaN, all NaNs equal, -0.0 == +0.0 — so every sort-driven
// operator must produce exactly the rows a std::stable_sort over
// RowComparator names (tests/test_support.h), bit-identical, at every
// thread count.
//
// The binary carries the `parity` ctest label, so the CI parity job runs
// it alongside the other parity gates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "stress/stress_support.h"
#include "table/table.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ExpectGroupByOf;
using testing::ExpectRowsOf;
using testing::ScopedNumThreads;
using testing::StableSortPerm;
using testing::StressThreadCounts;

double PayloadNan(uint64_t payload, bool negative) {
  uint64_t bits = 0x7FF8000000000000ull | (payload & 0xFFFFFFFFull);
  if (negative) bits |= uint64_t{1} << 63;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Large enough for the kernel's multi-part parallel path (> 1 << 14),
// seeded with every special value class: quiet/signaling/payload NaNs of
// both signs, ±inf, ±0.0, denormals, and ordinary values with ties.
constexpr int64_t kRows = 40000;

TablePtr MakeNanTable(int64_t n, uint64_t seed) {
  Schema schema{{"g", ColumnType::kInt}, {"f", ColumnType::kFloat}};
  TablePtr t = Table::Create(std::move(schema));
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      PayloadNan(0xBEEF, false),
      PayloadNan(0xBEEF, true),
      inf,
      -inf,
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
  };
  SplitMix64 mix(seed);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = static_cast<int64_t>(mix() % 40);
    // One row in four is a special value; the rest are small quarters
    // with heavy ties so stability is load-bearing.
    const double f =
        (mix() % 4 == 0)
            ? specials[mix() % specials.size()]
            : static_cast<double>(static_cast<int64_t>(mix() % 64) - 32) /
                  4.0;
    RINGO_CHECK_OK(t->AppendRow({g, f}));
  }
  return t;
}

// `op` must return exactly the rows `rows` of `t` at every stress thread
// count.
template <typename Op>
void ExpectRows(const std::string& ctx, const Table& t,
                const std::vector<int64_t>& rows, Op op) {
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    auto r = op();
    ASSERT_TRUE(r.ok()) << ctx << ": " << r.status().ToString();
    ExpectRowsOf(**r, t, rows, ctx + " tc=" + std::to_string(tc));
  }
}

TEST(NanSortParity, OrderByFloatBothDirections) {
  const TablePtr t = MakeNanTable(kRows, 0xA1B2);
  ExpectRows("OrderBy f", *t, StableSortPerm(*t, {"f"}),
             [&] { return t->OrderBy({"f"}); });
  ExpectRows("OrderBy f desc", *t, StableSortPerm(*t, {"f"}, {false}),
             [&] { return t->OrderBy({"f"}, {false}); });
}

TEST(NanSortParity, OrderByCompositeKeys) {
  const TablePtr t = MakeNanTable(kRows, 0xF10A7);
  ExpectRows("OrderBy (g,f)", *t, StableSortPerm(*t, {"g", "f"}),
             [&] { return t->OrderBy({"g", "f"}); });
  ExpectRows("OrderBy (f,g) asc/desc", *t,
             StableSortPerm(*t, {"f", "g"}, {true, false}),
             [&] { return t->OrderBy({"f", "g"}, {true, false}); });
}

TEST(NanSortParity, TopKAndGroupBy) {
  const TablePtr t = MakeNanTable(kRows, 0x70B0);
  ExpectRows("TopK f", *t, testing::RefTopKRows(*t, "f", 700, false),
             [&] { return t->TopK("f", 700); });
  ExpectRows("TopK f asc", *t, testing::RefTopKRows(*t, "f", 700, true),
             [&] { return t->TopK("f", 700, true); });
  const std::vector<AggSpec> aggs = {{"f", AggFn::kMin, "lo"},
                                     {"f", AggFn::kMax, "hi"},
                                     {"f", AggFn::kSum, "total"}};
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    auto r = t->GroupByAggregate({"g"}, aggs);
    ASSERT_TRUE(r.ok());
    ExpectGroupByOf(**r, *t, {"g"}, aggs,
                    "GroupBy g min/max/sum f tc=" + std::to_string(tc));
  }
}

TEST(NanSortParity, UniqueOnFloatColumn) {
  const TablePtr t = MakeNanTable(kRows, 0x0DDB);
  ExpectRows("Unique f", *t, testing::RefUniqueRows(*t, {"f"}),
             [&] { return t->Unique({"f"}); });
  ExpectRows("Unique (g,f)", *t, testing::RefUniqueRows(*t, {"g", "f"}),
             [&] { return t->Unique({"g", "f"}); });
}

// The documented order itself, not just parity: ascending puts every NaN
// row at the bottom, after +inf, regardless of NaN sign or payload.
TEST(NanSortParity, NansSortLastAscending) {
  // One or two key columns take the radix kernel; three take the
  // comparison fallback. Each must put every NaN last.
  const TablePtr t = MakeNanTable(kRows, 0x1A57);
  RINGO_CHECK_OK(t->AddIntColumn(
      "zero", [](const Table&, int64_t) { return int64_t{0}; }));
  const std::vector<std::vector<std::string>> keys = {
      {"f"}, {"f", "g"}, {"f", "g", "zero"}};
  for (const std::vector<std::string>& key : keys) {
    auto sorted = t->OrderBy(key);
    ASSERT_TRUE(sorted.ok());
    const Column& f = (*sorted)->column(1);
    int64_t first_nan = (*sorted)->NumRows();
    for (int64_t r = 0; r < (*sorted)->NumRows(); ++r) {
      if (std::isnan(f.GetFloat(r))) {
        first_nan = r;
        break;
      }
    }
    ASSERT_LT(first_nan, (*sorted)->NumRows()) << "table lost its NaNs";
    for (int64_t r = first_nan; r < (*sorted)->NumRows(); ++r) {
      EXPECT_TRUE(std::isnan(f.GetFloat(r)))
          << key.size() << " key(s): non-NaN after first NaN at " << r;
    }
  }
}

}  // namespace
}  // namespace ringo
