#include "table/table_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>

#include "core/conversion.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {
namespace {

// Loads `path` with `threads` OpenMP threads into `pool` (a fresh one when
// null).
Result<TablePtr> LoadAt(int threads, const Schema& schema,
                        const std::string& path,
                        std::shared_ptr<StringPool> pool = nullptr,
                        bool has_header = false) {
  testing::ScopedNumThreads scoped(threads);
  return LoadTableTSV(schema, path, std::move(pool), has_header);
}

// Two loads produced the same table: same cells (floats by bit pattern),
// same string ids and the same bytes behind every id of their pools.
void ExpectSameLoad(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (int c = 0; c < a.num_columns(); ++c) {
    switch (a.schema().column(c).type) {
      case ColumnType::kInt:
        EXPECT_EQ(a.column(c).ints(), b.column(c).ints()) << "column " << c;
        break;
      case ColumnType::kFloat:
        for (int64_t r = 0; r < a.NumRows(); ++r) {
          ASSERT_EQ(std::bit_cast<uint64_t>(a.column(c).GetFloat(r)),
                    std::bit_cast<uint64_t>(b.column(c).GetFloat(r)))
              << "column " << c << " row " << r;
        }
        break;
      case ColumnType::kString:
        EXPECT_EQ(a.column(c).strs(), b.column(c).strs()) << "column " << c;
        break;
    }
  }
  ASSERT_EQ(a.pool()->size(), b.pool()->size());
  for (StringPool::Id id = 0; id < a.pool()->size(); ++id) {
    ASSERT_EQ(a.pool()->Get(id), b.pool()->Get(id)) << "id " << id;
  }
}

class TableIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempFile(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << content;
    files_.push_back(path);
    return path;
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> files_;
};

TEST_F(TableIoTest, LoadBasicTSV) {
  const std::string path = TempFile(
      "basic.tsv", "1\t2.5\tjava\n2\t-1.0\tcpp\n3\t0\trust\n");
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 3);
  EXPECT_EQ((*t)->column(0).GetInt(1), 2);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetFloat(0), 2.5);
  EXPECT_EQ(std::get<std::string>((*t)->GetValue(2, 2)), "rust");
}

TEST_F(TableIoTest, SkipsCommentsBlankLinesAndHeader) {
  // The header is the FIRST non-blank line (commented or not), so the
  // comment banner goes after it here; mid-file comments and blanks are
  // skipped as data.
  const std::string path = TempFile("comments.tsv",
                                    "id\n"
                                    "# a comment\n"
                                    "\n"
                                    "7\n"
                                    "# tail comment\n"
                                    "8\n");
  Schema schema{{"id", ColumnType::kInt}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 2);
  EXPECT_EQ((*t)->column(0).GetInt(0), 7);
  EXPECT_EQ((*t)->column(0).GetInt(1), 8);
}

// Regression: a '#'-commented header line ("# id<TAB>w", the common TSV
// export format) used to be skipped as a comment, after which the first
// DATA row was silently consumed as the header — every load lost a row.
// The first non-blank line is now the header whether commented or not.
TEST_F(TableIoTest, CommentedHeaderDoesNotEatFirstDataRow) {
  const std::string path = TempFile("commented_header.tsv",
                                    "# id\tw\n"
                                    "1\t0.5\n"
                                    "2\t1.5\n"
                                    "3\t2.5\n");
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 3);  // Row "1" survived.
  EXPECT_EQ((*t)->column(0).GetInt(0), 1);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetFloat(0), 0.5);
}

// Regression companion: blank lines before the header do not count as the
// header — the first non-BLANK line does, and data still follows.
TEST_F(TableIoTest, BlankLinesBeforeHeaderAreSkipped) {
  const std::string path = TempFile("blank_then_header.tsv",
                                    "\n"
                                    "\n"
                                    "id\tw\n"
                                    "4\t0.25\n");
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 1);
  EXPECT_EQ((*t)->column(0).GetInt(0), 4);
}

TEST_F(TableIoTest, HandlesCRLF) {
  const std::string path = TempFile("crlf.tsv", "1\tx\r\n2\ty\r\n");
  Schema schema{{"id", ColumnType::kInt}, {"s", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(std::get<std::string>((*t)->GetValue(1, 1)), "y");
}

TEST_F(TableIoTest, RejectsWrongArity) {
  const std::string few = TempFile("bad.tsv", "1\t2\n3\n");
  const std::string many = TempFile("bad_many.tsv", "1\t2\n\n3\t4\t5\n");
  Schema schema{{"a", ColumnType::kInt}, {"b", ColumnType::kInt}};
  for (const int threads : {1, 4}) {
    const Status st = LoadAt(threads, schema, few).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_EQ(st.message(), "line 2: expected 2 fields, got 1");
    // Line numbers count blank lines: they are lines of the file.
    const Status st_many = LoadAt(threads, schema, many).status();
    EXPECT_TRUE(st_many.IsInvalidArgument()) << st_many;
    EXPECT_EQ(st_many.message(), "line 3: expected 2 fields, got 3");
  }
}

TEST_F(TableIoTest, RejectsBadNumbers) {
  const std::string path = TempFile("badnum.tsv", "xyz\n");
  const std::string float_path =
      TempFile("badfloat.tsv", "# id\tw\n1\t0.5\n2\tnope\n");
  Schema schema{{"a", ColumnType::kInt}};
  Schema float_schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  for (const int threads : {1, 4}) {
    const Status st = LoadAt(threads, schema, path).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_EQ(st.message(), "line 1, column 'a': cannot parse integer: 'xyz'");
    const Status st_float =
        LoadAt(threads, float_schema, float_path, nullptr, true).status();
    EXPECT_TRUE(st_float.IsInvalidArgument()) << st_float;
    EXPECT_EQ(st_float.message(),
              "line 3, column 'w': cannot parse float: 'nope'");
  }
}

// A file large enough for several parse chunks, with bad lines in two of
// them: every thread count reports the first bad line of the file, counted
// in file lines (header and comments included).
TEST_F(TableIoTest, ReportsFirstBadLineInFileOrder) {
  std::string content = "id\ttag\n# comment\n";
  constexpr int kRows = 100000;
  for (int i = 0; i < kRows; ++i) {
    if (i == 30000) {
      content += "oops\tx\n";  // File line 30003.
    } else if (i == 90000) {
      content += "1\n";
    } else {
      content += std::to_string(i) + "\tt" + std::to_string(i % 13) + "\n";
    }
  }
  const std::string path = TempFile("two_bad.tsv", content);
  Schema schema{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  for (const int threads : {1, 2, 4}) {
    const Status st = LoadAt(threads, schema, path, nullptr, true).status();
    EXPECT_EQ(st.message(),
              "line 30003, column 'id': cannot parse integer: 'oops'")
        << "threads=" << threads;
  }
}

// A failed load interns nothing: the shared pool keeps its size and its
// Version(), so ByteOrderRanks caches survive.
TEST_F(TableIoTest, FailedLoadLeavesPoolUntouched) {
  std::string good;
  for (int i = 0; i < 100000; ++i) {
    good += "s" + std::to_string(i) + "\t" + std::to_string(i) + "\n";
  }
  const std::string bad_last = TempFile("bad_last.tsv", good + "tail\tx\n");
  const std::string bad_arity = TempFile("bad_arity.tsv", good + "tail\n");
  Schema schema{{"s", ColumnType::kString}, {"n", ColumnType::kInt}};
  auto pool = std::make_shared<StringPool>();
  pool->GetOrAdd("resident");
  const auto ranks = pool->ByteOrderRanks();
  const uint64_t version = pool->Version();
  for (const int threads : {1, 4}) {
    for (const std::string& path : {bad_last, bad_arity}) {
      const Status st = LoadAt(threads, schema, path, pool).status();
      EXPECT_TRUE(st.IsInvalidArgument()) << st;
      EXPECT_EQ(st.message().rfind("line 100001", 0), 0u) << st;
      EXPECT_EQ(pool->size(), 1);
      EXPECT_EQ(pool->Version(), version);
      EXPECT_EQ(pool->ByteOrderRanks(), ranks);
    }
  }
}

// Pool ids are the strings' first-occurrence order in the file (row-major
// over the string columns) at every thread count. Each parse chunk holds
// strings the others also hold, so ids handed out in thread-arrival order
// would differ between runs and from the one-thread load.
TEST_F(TableIoTest, StringIdsDoNotDependOnThreadCount) {
  std::string content;
  constexpr int kRows = 200000;
  for (int i = 0; i < kRows; ++i) {
    content += "node" + std::to_string(i % 100000) + "\tnode" +
               std::to_string((i * 7 + 3) % 100000) + "\t" +
               std::to_string(i) + "\n";
  }
  const std::string path = TempFile("ids.tsv", content);
  Schema schema{{"src", ColumnType::kString},
                {"dst", ColumnType::kString},
                {"row", ColumnType::kInt}};
  auto one = LoadAt(1, schema, path);
  ASSERT_TRUE(one.ok()) << one.status();
  const StringPool& pool = *(*one)->pool();
  EXPECT_EQ(pool.size(), 100000);
  EXPECT_EQ(pool.Get(0), "node0");  // Row 0, src.
  EXPECT_EQ(pool.Get(1), "node3");  // Row 0, dst.
  EXPECT_EQ(pool.Get(2), "node1");  // Row 1, src.
  const DirectedGraph g1 = TableToGraph(**one, "src", "dst").ValueOrDie();

  for (const int threads : {2, 4}) {
    auto many = LoadAt(threads, schema, path);
    ASSERT_TRUE(many.ok()) << many.status();
    ExpectSameLoad(**one, **many);
    const DirectedGraph g = TableToGraph(**many, "src", "dst").ValueOrDie();
    EXPECT_EQ(g.SortedNodeIds(), g1.SortedNodeIds()) << "threads=" << threads;
    EXPECT_EQ(testing::EdgeSet(g), testing::EdgeSet(g1))
        << "threads=" << threads;
  }
}

// Fixed-seed byte mutations of a saved TSV (byte rewrites, truncation and
// inserted tab, CR, LF and NUL bytes): every load ends in OK or a typed
// InvalidArgument / IOError, never a crash, and the one-thread and
// four-thread loads agree — on the table when both succeed, on the message
// when both fail.
TEST_F(TableIoTest, MutatedTsvLoadsOrFailsCleanly) {
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString},
                {"user", ColumnType::kString}};
  TablePtr t = Table::Create(schema);
  for (int i = 0; i < 3000; ++i) {
    RINGO_CHECK_OK(t->AppendRow({int64_t{i} * 37 - 5000, i / 7.0,
                                 "tag" + std::to_string(i % 13),
                                 "u" + std::to_string(i % 997)}));
  }
  const std::string path = TempPath("mutated.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path, /*write_header=*/true).ok());
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Several parse chunks at four threads.
  ASSERT_GT(original.size(), size_t{64} << 10);

  Rng rng(0x75F1);
  constexpr char kInserts[] = {'\t', '\r', '\n', '\0'};
  int loaded = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes = original;
    const int edits = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      if (rng.UniformInt(0, 1) == 0) {
        bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
      } else {
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     kInserts[rng.UniformInt(0, 3)]);
      }
    }
    if (iter % 10 == 0) {
      bytes.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Result<TablePtr> one = LoadAt(1, schema, path, nullptr, true);
    const Result<TablePtr> four = LoadAt(4, schema, path, nullptr, true);
    for (const Result<TablePtr>* r : {&one, &four}) {
      if (!r->ok()) {
        EXPECT_TRUE(r->status().IsInvalidArgument() ||
                    r->status().IsIOError())
            << "iter " << iter << ": " << r->status();
      }
    }
    ASSERT_EQ(one.ok(), four.ok()) << "iter " << iter;
    if (!one.ok()) {
      EXPECT_EQ(one.status().message(), four.status().message())
          << "iter " << iter;
      continue;
    }
    ++loaded;
    ExpectSameLoad(**one, **four);
  }
  // Truncation at a line end, and rewrites inside string fields, still
  // leave a valid file.
  EXPECT_GT(loaded, 0);
}

// The load records its span tree: the root plus read, parse and intern
// phases, each with the row and byte counts it handled.
TEST_F(TableIoTest, LoadRecordsPhaseSpans) {
  const std::string path =
      TempFile("spans.tsv", "id\ttag\n1\tjava\n2\tcpp\n3\tjava\n");
  Schema schema{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  const bool was_enabled = metrics::Enabled();
  metrics::SetEnabled(true);
  trace::Clear();
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  const std::vector<trace::SpanEvent> spans = trace::Spans();
  metrics::SetEnabled(was_enabled);
  ASSERT_TRUE(t.ok()) << t.status();

  auto attr = [](const trace::SpanEvent& e, const std::string& key) {
    for (const auto& [k, v] : e.int_attrs) {
      if (k == key) return v;
    }
    return int64_t{-1};
  };
  std::set<std::string> seen;
  for (const trace::SpanEvent& e : spans) {
    if (e.name.rfind("Table/LoadTableTSV", 0) != 0) continue;
    seen.insert(e.name);
    EXPECT_EQ(attr(e, "rows"), 3) << e.name;
    const int64_t want_bytes = e.name.ends_with("/intern") ? 7 : 27;
    EXPECT_EQ(attr(e, "bytes"), want_bytes) << e.name;
    EXPECT_EQ(e.depth, e.name == "Table/LoadTableTSV" ? 0 : 1) << e.name;
  }
  EXPECT_EQ(seen, (std::set<std::string>{
                      "Table/LoadTableTSV", "Table/LoadTableTSV/read",
                      "Table/LoadTableTSV/parse", "Table/LoadTableTSV/intern"}));
}

TEST_F(TableIoTest, MissingFileIsIOError) {
  Schema schema{{"a", ColumnType::kInt}};
  EXPECT_TRUE(
      LoadTableTSV(schema, "/nonexistent/nope.tsv").status().IsIOError());
  // A directory opens but cannot be read.
  EXPECT_TRUE(LoadTableTSV(schema, ::testing::TempDir()).status().IsIOError());
}

TEST_F(TableIoTest, SaveLoadRoundTrip) {
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({int64_t{10}, 1.25, std::string("alpha")}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{-3}, -0.5, std::string("beta")}));
  const std::string path = TempPath("round.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path).ok());

  auto back = LoadTableTSV(schema, path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(t->ContentEquals(**back));
}

TEST_F(TableIoTest, FloatRoundTripIsBitExact) {
  Schema schema{{"w", ColumnType::kFloat}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({0.1234567890123456789}));
  RINGO_CHECK_OK(t->AppendRow({1.0 / 3.0}));
  RINGO_CHECK_OK(t->AppendRow({-2.718281828459045}));
  const std::string path = TempPath("precise.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path).ok());
  auto back = LoadTableTSV(schema, path);
  ASSERT_TRUE(back.ok()) << back.status();
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    EXPECT_EQ(t->column(0).GetFloat(r), (*back)->column(0).GetFloat(r))
        << "row " << r << " must round-trip exactly";
  }
}

TEST_F(TableIoTest, SaveWithHeaderThenLoadWithHeader) {
  Schema schema{{"id", ColumnType::kInt}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({int64_t{5}}));
  const std::string path = TempPath("hdr.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path, /*write_header=*/true).ok());
  auto back = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(t->ContentEquals(**back));
}

TEST_F(TableIoTest, LargeFileParsesCompletely) {
  std::string content;
  for (int i = 0; i < 20000; ++i) {
    content += std::to_string(i) + "\ttag" + std::to_string(i % 7) + "\n";
  }
  const std::string path = TempFile("large.tsv", content);
  Schema schema{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 20000);
  EXPECT_EQ((*t)->column(0).GetInt(19999), 19999);
  EXPECT_EQ((*t)->pool()->size(), 7);
}

}  // namespace
}  // namespace ringo
