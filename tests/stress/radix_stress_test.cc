// Stress: the production sort paths against the tests/-side comparison
// reference (std::stable_sort over RowComparator, tests/test_support.h).
// Every sort-driven operator (OrderBy, Unique, GroupBy, NextK, TopK, set
// ops) must produce exactly the rows that reference names — bit-identical
// cells and row ids — at every stress thread count, and the sort-first
// conversions must match the sort-free TableToGraphNaive and a row-order
// weight accumulation. The radix kernel is stable over ascending-row
// input, which is exactly the reference's position tiebreak. This file is
// part of the `stress` and `parity` labels, so it also runs under TSan.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/conversion.h"
#include "stress/stress_support.h"
#include "table/table.h"
#include "test_support.h"
#include "util/radix_sort.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ExpectGroupByOf;
using testing::ExpectPairedRowsOf;
using testing::ExpectRowsOf;
using testing::ScopedNumThreads;
using testing::StressThreadCounts;

// Large enough that the kernel takes its multi-part path (> 1 << 14).
constexpr int64_t kRows = 40000;

// Mixed-type test table: group ints (heavy duplicates), value ints with
// negatives, floats with ties, strings from a vocabulary interned in
// non-byte order.
TablePtr MakeMixedTable(int64_t n, uint64_t seed) {
  Schema schema{{"g", ColumnType::kInt},
                {"v", ColumnType::kInt},
                {"f", ColumnType::kFloat},
                {"s", ColumnType::kString}};
  TablePtr t = Table::Create(std::move(schema));
  const std::vector<std::string> vocab = {"pear", "apple", "zebra",
                                          "apples", "Pear", "banana", ""};
  SplitMix64 mix(seed);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = static_cast<int64_t>(mix() % 50);
    const int64_t v = static_cast<int64_t>(mix() % 1000) - 500;
    const double f = static_cast<double>(static_cast<int64_t>(mix() % 64) - 32) / 4.0;
    const std::string& s = vocab[mix() % vocab.size()];
    RINGO_CHECK_OK(t->AppendRow({g, v, f, s}));
  }
  return t;
}

// Two-int-column edge-list style table (node ids reused heavily so the
// conversions collapse duplicates and aggregate weights).
TablePtr MakeEdgeTable(int64_t n, uint64_t seed, bool with_weight) {
  Schema schema = with_weight
                      ? Schema{{"src", ColumnType::kInt},
                               {"dst", ColumnType::kInt},
                               {"w", ColumnType::kFloat}}
                      : Schema{{"src", ColumnType::kInt},
                               {"dst", ColumnType::kInt}};
  TablePtr t = Table::Create(std::move(schema));
  SplitMix64 mix(seed);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t src = static_cast<int64_t>(mix() % 300);
    const int64_t dst = static_cast<int64_t>(mix() % 300);
    if (with_weight) {
      // Sevenths are inexact in binary, so duplicate-edge sums depend on
      // the accumulation order and the bit-identity check can see it.
      const double w = static_cast<double>(mix() % 1000) / 7.0;
      RINGO_CHECK_OK(t->AppendRow({src, dst, w}));
    } else {
      RINGO_CHECK_OK(t->AppendRow({src, dst}));
    }
  }
  return t;
}

// Runs `op` at every stress thread count and checks each result with
// `check`, which compares it against a tests/-side reference.
template <typename Op, typename Check>
void ForEachThreadCount(const std::string& ctx, Op op, Check check) {
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    auto r = op();
    ASSERT_TRUE(r.ok()) << ctx << ": " << r.status().ToString();
    check(**r, ctx + " tc=" + std::to_string(tc));
  }
}

// `op` must return exactly the rows `rows` of `t`.
template <typename Op>
void ExpectRows(const std::string& ctx, const Table& t,
                const std::vector<int64_t>& rows, Op op) {
  ForEachThreadCount(ctx, op, [&](const Table& out, const std::string& c) {
    ExpectRowsOf(out, t, rows, c);
  });
}

TEST(RadixParityStress, OrderBySingleColumns) {
  const TablePtr t = MakeMixedTable(kRows, 0xA11CE);
  for (const char* col : {"g", "v", "f", "s"}) {
    ExpectRows(std::string("OrderBy ") + col, *t,
               testing::StableSortPerm(*t, {col}),
               [&] { return t->OrderBy({col}); });
    ExpectRows(std::string("OrderBy desc ") + col, *t,
               testing::StableSortPerm(*t, {col}, {false}),
               [&] { return t->OrderBy({col}, {false}); });
  }
}

TEST(RadixParityStress, OrderByTwoColumnsMixedDirections) {
  const TablePtr t = MakeMixedTable(kRows, 0xB0B);
  ExpectRows("OrderBy (g,v)", *t, testing::StableSortPerm(*t, {"g", "v"}),
             [&] { return t->OrderBy({"g", "v"}); });
  ExpectRows("OrderBy (s,f) asc/desc", *t,
             testing::StableSortPerm(*t, {"s", "f"}, {true, false}),
             [&] { return t->OrderBy({"s", "f"}, {true, false}); });
  // Three key columns take the comparison fallback, the only path for
  // that input; it must name the same rows.
  ExpectRows("OrderBy (g,v,s)", *t,
             testing::StableSortPerm(*t, {"g", "v", "s"}),
             [&] { return t->OrderBy({"g", "v", "s"}); });
}

TEST(RadixParityStress, UniqueAndGroupBy) {
  const TablePtr t = MakeMixedTable(kRows, 0xC0DE);
  ExpectRows("Unique (g,s)", *t, testing::RefUniqueRows(*t, {"g", "s"}),
             [&] { return t->Unique({"g", "s"}); });
  const std::vector<AggSpec> g_aggs = {{"v", AggFn::kSum, "total"},
                                       {"f", AggFn::kMin, "lo"}};
  ForEachThreadCount(
      "GroupBy g", [&] { return t->GroupByAggregate({"g"}, g_aggs); },
      [&](const Table& out, const std::string& ctx) {
        ExpectGroupByOf(out, *t, {"g"}, g_aggs, ctx);
      });
  const std::vector<AggSpec> gs_aggs = {{"v", AggFn::kCount, "n"}};
  ForEachThreadCount(
      "GroupBy (g,s)",
      [&] { return t->GroupByAggregate({"g", "s"}, gs_aggs); },
      [&](const Table& out, const std::string& ctx) {
        ExpectGroupByOf(out, *t, {"g", "s"}, gs_aggs, ctx);
      });
}

TEST(RadixParityStress, NextKAndTopK) {
  const TablePtr t = MakeMixedTable(kRows, 0xDEED);
  std::vector<int64_t> pred, succ;
  testing::RefNextKPairs(*t, "g", "v", 2, &pred, &succ);
  ForEachThreadCount(
      "NextK (g,v)", [&] { return Table::NextK(*t, "g", "v", 2); },
      [&](const Table& out, const std::string& ctx) {
        ExpectPairedRowsOf(out, *t, pred, succ, ctx);
      });
  ExpectRows("TopK f", *t, testing::RefTopKRows(*t, "f", 500, false),
             [&] { return t->TopK("f", 500); });
  ExpectRows("TopK v asc", *t, testing::RefTopKRows(*t, "v", 500, true),
             [&] { return t->TopK("v", 500, true); });
}

TEST(RadixParityStress, SetOps) {
  const TablePtr a = MakeEdgeTable(kRows, 0xAAA, /*with_weight=*/false);
  const TablePtr b = MakeEdgeTable(kRows, 0xBBB, /*with_weight=*/false);
  // Union = the distinct rows of the concatenation, by first occurrence.
  const TablePtr cat = Table::ConcatTables(*a, *b).ValueOrDie();
  ExpectRows("Union", *cat, testing::RefUniqueRows(*cat, {"src", "dst"}),
             [&] { return Table::UnionTables(*a, *b); });
  ExpectRows("Intersect", *a, testing::RefSetOpRows(*a, *b, true),
             [&] { return Table::IntersectTables(*a, *b); });
  ExpectRows("Minus", *a, testing::RefSetOpRows(*a, *b, false),
             [&] { return Table::MinusTables(*a, *b); });
}

TEST(RadixParityStress, TableToGraphMatchesNaiveBuild) {
  const TablePtr t = MakeEdgeTable(kRows, 0x9999, /*with_weight=*/false);
  // The sort-free reference: one AddEdge per row.
  const DirectedGraph ref = TableToGraphNaive(*t, "src", "dst").ValueOrDie();
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    auto g = TableToGraph(*t, "src", "dst");
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g->SameStructure(ref)) << "tc=" << tc;
  }
}

TEST(RadixParityStress, TableToWeightedGraphWeightsBitIdentical) {
  const TablePtr t = MakeEdgeTable(kRows, 0x7777, /*with_weight=*/true);
  // Reference: accumulate every row's weight onto its edge in ascending
  // row order — duplicate-edge sums must come out bit-identical.
  std::map<Edge, double> ref;
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    ref[{t->column(0).GetInt(r), t->column(1).GetInt(r)}] +=
        t->column(2).GetFloat(r);
  }
  const DirectedGraph ref_graph =
      TableToGraphNaive(*t, "src", "dst").ValueOrDie();
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    auto g = TableToWeightedGraph(*t, "src", "dst", "w");
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->graph.SameStructure(ref_graph)) << "tc=" << tc;
    ASSERT_EQ(g->weights.size(), static_cast<int64_t>(ref.size()))
        << "tc=" << tc;
    for (const auto& [e, w] : ref) {
      const double got = g->weights.Get(e.first, e.second);
      ASSERT_EQ(std::memcmp(&got, &w, sizeof(got)), 0)
          << "tc=" << tc << " edge " << e.first << "->" << e.second << ": "
          << got << " vs " << w;
    }
  }
}

TEST(RadixKernelStress, ThreadCountInvariance) {
  constexpr int64_t kN = 120000;
  SplitMix64 mix(0x5151);
  std::vector<KeyRow2> input(kN);
  for (int64_t i = 0; i < kN; ++i) {
    input[i] = {mix() % 512, mix(), i};
  }
  std::vector<KeyRow2> ref;
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    std::vector<KeyRow2> v = input;
    RadixSortKeyRows2(v.data(), kN);
    if (ref.empty()) {
      ref = std::move(v);
      continue;
    }
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(v[i].hi, ref[i].hi) << "tc=" << tc << " i=" << i;
      ASSERT_EQ(v[i].lo, ref[i].lo) << "tc=" << tc << " i=" << i;
      ASSERT_EQ(v[i].row, ref[i].row) << "tc=" << tc << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ringo
