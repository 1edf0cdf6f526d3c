// Set operations over whole rows (§2.3): Union, Intersect, Minus with set
// (distinct) semantics. Implemented by sorting a row permutation of each
// input and merging — no hashing of composite rows needed, and string
// columns compare correctly across different pools.
#include <numeric>

#include "table/key_normalize.h"
#include "table/row_compare.h"
#include "table/table.h"
#include "util/trace.h"

namespace ringo {

namespace {

Status CheckSameSchema(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::TypeMismatch("set operation on incompatible schemas: [" +
                                a.schema().ToString() + "] vs [" +
                                b.schema().ToString() + "]");
  }
  return Status::OK();
}

std::vector<int> AllColumns(const Table& t) {
  std::vector<int> idx(t.num_columns());
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

// First physical row of each distinct full-row-content run, in content
// order (RowComparator's byte/value order, so the result stays consistent
// with the cross-table merge-walks below).
std::vector<int64_t> SortedDistinctFirsts(const Table& t) {
  std::vector<int64_t> perm;
  std::vector<uint8_t> new_run;
  internal::SortedPermByKeys(t, AllColumns(t), {}, &perm, &new_run);
  std::vector<int64_t> firsts;
  for (size_t i = 0; i < perm.size(); ++i) {
    if (new_run[i]) firsts.push_back(perm[i]);
  }
  return firsts;
}

}  // namespace

Result<TablePtr> Table::UnionTables(const Table& a, const Table& b) {
  RINGO_RETURN_NOT_OK(CheckSameSchema(a, b));
  trace::Span span("Table/Union");
  span.AddAttr("left_rows", a.NumRows());
  span.AddAttr("right_rows", b.NumRows());
  // Concatenate (interning b's strings into a's pool), then dedupe.
  TablePtr cat = Create(a.schema(), a.pool());
  std::vector<std::string> names;
  for (const ColumnSpec& c : a.schema().columns()) names.push_back(c.name);
  for (int c = 0; c < a.num_columns(); ++c) {
    cat->mutable_column(c).AppendColumn(a.column(c));
  }
  const bool same_pool = a.pool() == b.pool();
  for (int c = 0; c < b.num_columns(); ++c) {
    Column& dst = cat->mutable_column(c);
    const Column& src = b.column(c);
    if (src.type() == ColumnType::kString && !same_pool) {
      for (int64_t r = 0; r < b.NumRows(); ++r) {
        dst.AppendStr(a.pool()->GetOrAdd(b.pool()->Get(src.GetStr(r))));
      }
    } else {
      dst.AppendColumn(src);
    }
  }
  RINGO_RETURN_NOT_OK(cat->SealAppendedRows(a.NumRows() + b.NumRows()));
  return cat->Unique(names);
}

Result<TablePtr> Table::IntersectTables(const Table& a, const Table& b) {
  RINGO_RETURN_NOT_OK(CheckSameSchema(a, b));
  trace::Span span("Table/Intersect");
  span.AddAttr("left_rows", a.NumRows());
  span.AddAttr("right_rows", b.NumRows());
  const std::vector<int> cols_a = AllColumns(a);
  const std::vector<int> cols_b = AllColumns(b);
  RowComparator cross(&a, &b, cols_a, cols_b);

  const std::vector<int64_t> da = SortedDistinctFirsts(a);
  const std::vector<int64_t> db = SortedDistinctFirsts(b);

  // Merge-walk the two sorted distinct row lists.
  std::vector<int64_t> keep;
  size_t i = 0, j = 0;
  while (i < da.size() && j < db.size()) {
    const int c = cross.Compare(da[i], db[j]);
    if (c == 0) {
      keep.push_back(da[i]);
      ++i;
      ++j;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  std::sort(keep.begin(), keep.end());  // First-occurrence order in a.
  return a.GatherRows(keep);
}

Result<TablePtr> Table::MinusTables(const Table& a, const Table& b) {
  RINGO_RETURN_NOT_OK(CheckSameSchema(a, b));
  trace::Span span("Table/Minus");
  span.AddAttr("left_rows", a.NumRows());
  span.AddAttr("right_rows", b.NumRows());
  const std::vector<int> cols_a = AllColumns(a);
  const std::vector<int> cols_b = AllColumns(b);
  RowComparator cross(&a, &b, cols_a, cols_b);

  const std::vector<int64_t> da = SortedDistinctFirsts(a);
  const std::vector<int64_t> db = SortedDistinctFirsts(b);

  std::vector<int64_t> keep;
  size_t i = 0, j = 0;
  while (i < da.size()) {
    if (j >= db.size()) {
      keep.push_back(da[i++]);
      continue;
    }
    const int c = cross.Compare(da[i], db[j]);
    if (c == 0) {
      ++i;
      ++j;
    } else if (c < 0) {
      keep.push_back(da[i++]);
    } else {
      ++j;
    }
  }
  std::sort(keep.begin(), keep.end());
  return a.GatherRows(keep);
}

}  // namespace ringo
