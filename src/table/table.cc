#include "table/table.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "table/key_normalize.h"
#include "table/row_compare.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

TablePtr Table::Create(Schema schema, std::shared_ptr<StringPool> pool) {
  if (pool == nullptr) pool = std::make_shared<StringPool>();
  return std::make_shared<Table>(std::move(schema), std::move(pool));
}

Table::Table(Schema schema, std::shared_ptr<StringPool> pool)
    : schema_(std::move(schema)), pool_(std::move(pool)) {
  RINGO_CHECK(pool_ != nullptr);
  cols_.reserve(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    cols_.emplace_back(schema_.column(i).type);
  }
}

void Table::ReserveRows(int64_t n) {
  for (Column& c : cols_) c.Reserve(n);
  row_ids_.reserve(n);
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) +
        " does not match schema [" + schema_.ToString() + "]");
  }
  // Validate before mutating so a failed append leaves the table intact.
  for (int i = 0; i < num_columns(); ++i) {
    const ColumnType t = schema_.column(i).type;
    const bool ok =
        (t == ColumnType::kInt && std::holds_alternative<int64_t>(values[i])) ||
        (t == ColumnType::kFloat &&
         (std::holds_alternative<double>(values[i]) ||
          std::holds_alternative<int64_t>(values[i]))) ||
        (t == ColumnType::kString &&
         std::holds_alternative<std::string>(values[i]));
    if (!ok) {
      return Status::TypeMismatch("value " + std::to_string(i) +
                                  " does not fit column '" +
                                  schema_.column(i).name + "' of type " +
                                  ColumnTypeToString(t));
    }
  }
  for (int i = 0; i < num_columns(); ++i) {
    switch (schema_.column(i).type) {
      case ColumnType::kInt:
        cols_[i].AppendInt(std::get<int64_t>(values[i]));
        break;
      case ColumnType::kFloat:
        cols_[i].AppendFloat(std::holds_alternative<double>(values[i])
                                 ? std::get<double>(values[i])
                                 : static_cast<double>(
                                       std::get<int64_t>(values[i])));
        break;
      case ColumnType::kString:
        cols_[i].AppendStr(pool_->GetOrAdd(std::get<std::string>(values[i])));
        break;
    }
  }
  row_ids_.push_back(next_row_id_++);
  ++num_rows_;
  return Status::OK();
}

Status Table::SealAppendedRows(int64_t added) {
  const int64_t expect = num_rows_ + added;
  for (int i = 0; i < num_columns(); ++i) {
    if (cols_[i].size() != expect) {
      return Status::Internal("column '" + schema_.column(i).name +
                              "' has " + std::to_string(cols_[i].size()) +
                              " rows, expected " + std::to_string(expect));
    }
  }
  row_ids_.reserve(expect);
  for (int64_t i = 0; i < added; ++i) row_ids_.push_back(next_row_id_++);
  num_rows_ = expect;
  return Status::OK();
}

Value Table::GetValue(int64_t row, int col) const {
  const Column& c = cols_[col];
  switch (c.type()) {
    case ColumnType::kInt: return c.GetInt(row);
    case ColumnType::kFloat: return c.GetFloat(row);
    case ColumnType::kString: return std::string(pool_->Get(c.GetStr(row)));
  }
  return int64_t{0};
}

std::string Table::FormatCell(int64_t row, int col) const {
  const Column& c = cols_[col];
  switch (c.type()) {
    case ColumnType::kInt: return std::to_string(c.GetInt(row));
    case ColumnType::kFloat: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", c.GetFloat(row));
      return buf;
    }
    case ColumnType::kString:
      return std::string(pool_->Get(c.GetStr(row)));
  }
  return {};
}

std::string Table::ToString(int64_t max_rows) const {
  const int64_t show = std::min(max_rows, num_rows_);
  std::vector<size_t> width(num_columns());
  std::vector<std::vector<std::string>> cells(show);
  for (int c = 0; c < num_columns(); ++c) {
    width[c] = schema_.column(c).name.size();
  }
  for (int64_t r = 0; r < show; ++r) {
    cells[r].resize(num_columns());
    for (int c = 0; c < num_columns(); ++c) {
      cells[r][c] = FormatCell(r, c);
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }
  std::ostringstream os;
  for (int c = 0; c < num_columns(); ++c) {
    os << (c ? " | " : "") << schema_.column(c).name
       << std::string(width[c] - schema_.column(c).name.size(), ' ');
  }
  os << "\n";
  for (int64_t r = 0; r < show; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      os << (c ? " | " : "") << cells[r][c]
         << std::string(width[c] - cells[r][c].size(), ' ');
    }
    os << "\n";
  }
  if (show < num_rows_) {
    os << "... (" << num_rows_ - show << " more rows)\n";
  }
  return os.str();
}

// ------------------------------------------------------------------ select

namespace {

// Typed predicate evaluation over one column; writes 0/1 flags.
template <typename T, typename Get>
void EvalTyped(int64_t n, CmpOp op, T rhs, const Get& get,
               std::vector<uint8_t>* flags) {
  auto run = [&](auto cmp) {
    ParallelFor(0, n, [&](int64_t i) { (*flags)[i] = cmp(get(i), rhs) ? 1 : 0; });
  };
  switch (op) {
    case CmpOp::kEq: run([](const T& a, const T& b) { return a == b; }); break;
    case CmpOp::kNe: run([](const T& a, const T& b) { return a != b; }); break;
    case CmpOp::kLt: run([](const T& a, const T& b) { return a < b; }); break;
    case CmpOp::kLe: run([](const T& a, const T& b) { return a <= b; }); break;
    case CmpOp::kGt: run([](const T& a, const T& b) { return a > b; }); break;
    case CmpOp::kGe: run([](const T& a, const T& b) { return a >= b; }); break;
  }
}

// Dictionary fast path: a dict-encoded column has few distinct values, so
// evaluate the comparison once per dictionary entry and flag rows with a
// byte lookup on the bit-packed code. Exactly equivalent to the per-row
// form (a row's flag depends only on its decoded value), but the scan
// touches one code and one byte of `match` per row instead of decoding —
// for strings it also collapses per-row pool lookups into per-entry ones.
template <typename T, typename DictGet>
void EvalDictCodes(const EncodedColumn& e, int64_t dict_count, int64_t n,
                   CmpOp op, T rhs, const DictGet& dict_at,
                   std::vector<uint8_t>* flags) {
  std::vector<uint8_t> match(static_cast<size_t>(dict_count), 0);
  EvalTyped<T>(dict_count, op, rhs, dict_at, &match);
  ParallelFor(0, n, [&](int64_t i) { (*flags)[i] = match[e.Code(i)]; });
}

std::vector<int64_t> FlagsToKeep(const std::vector<uint8_t>& flags) {
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < static_cast<int64_t>(flags.size()); ++i) {
    if (flags[i]) keep.push_back(i);
  }
  return keep;
}

}  // namespace

Status Table::EvalPredicate(std::string_view col, CmpOp op,
                            const Value& value,
                            std::vector<int64_t>* keep) const {
  std::vector<uint8_t> flags;
  RINGO_RETURN_NOT_OK(EvalPredicateFlags(col, op, value, &flags));
  *keep = FlagsToKeep(flags);
  return Status::OK();
}

Status Table::EvalPredicateFlags(std::string_view col, CmpOp op,
                                 const Value& value,
                                 std::vector<uint8_t>* out_flags) const {
  RINGO_ASSIGN_OR_RETURN(const int ci, schema_.FindColumn(col));
  const Column& c = cols_[ci];
  std::vector<uint8_t>& flags = *out_flags;
  flags.assign(num_rows_, 0);
  switch (c.type()) {
    case ColumnType::kInt: {
      if (!std::holds_alternative<int64_t>(value)) {
        return Status::TypeMismatch("int column '" + std::string(col) +
                                    "' compared with non-int value");
      }
      const int64_t rhs = std::get<int64_t>(value);
      const EncodedColumn* e = c.encoded_state();
      if (e != nullptr && e->enc == ColumnEncoding::kDictInt) {
        EvalDictCodes<int64_t>(
            *e, static_cast<int64_t>(e->dict_ints.size()), num_rows_, op, rhs,
            [&](int64_t k) { return e->dict_ints[k]; }, &flags);
      } else if (e != nullptr && e->enc == ColumnEncoding::kForInt &&
                 e->bits <= 62) {
        // FOR is order-preserving (v = base + code), so every comparison
        // maps onto the packed codes: v op rhs <=> code op (rhs - base).
        // Codes live in [0, 2^bits), so clamping the threshold to
        // [-1, 2^bits] decides out-of-range rhs the same way exact
        // arithmetic would while keeping the compare in int64.
        const __int128 wide = static_cast<__int128>(rhs) - e->for_base;
        const __int128 hi = static_cast<__int128>(int64_t{1} << e->bits);
        const int64_t t =
            static_cast<int64_t>(wide < -1 ? -1 : (wide > hi ? hi : wide));
        EvalTyped<int64_t>(
            num_rows_, op, t,
            [&](int64_t i) { return static_cast<int64_t>(e->Code(i)); },
            &flags);
      } else {
        EvalTyped<int64_t>(num_rows_, op, rhs,
                           [&](int64_t i) { return c.GetInt(i); }, &flags);
      }
      break;
    }
    case ColumnType::kFloat: {
      double rhs;
      if (std::holds_alternative<double>(value)) {
        rhs = std::get<double>(value);
      } else if (std::holds_alternative<int64_t>(value)) {
        rhs = static_cast<double>(std::get<int64_t>(value));
      } else {
        return Status::TypeMismatch("float column '" + std::string(col) +
                                    "' compared with non-numeric value");
      }
      const EncodedColumn* e = c.encoded_state();
      if (e != nullptr && e->enc == ColumnEncoding::kDictFloat) {
        EvalDictCodes<double>(
            *e, static_cast<int64_t>(e->dict_floats.size()), num_rows_, op,
            rhs, [&](int64_t k) { return e->dict_floats[k]; }, &flags);
      } else {
        EvalTyped<double>(num_rows_, op, rhs,
                          [&](int64_t i) { return c.GetFloat(i); }, &flags);
      }
      break;
    }
    case ColumnType::kString: {
      if (!std::holds_alternative<std::string>(value)) {
        return Status::TypeMismatch("string column '" + std::string(col) +
                                    "' compared with non-string value");
      }
      const std::string& rhs = std::get<std::string>(value);
      if (op == CmpOp::kEq || op == CmpOp::kNe) {
        // Equality resolves to an id comparison: one intern, then integers.
        const StringPool::Id id = pool_->Find(rhs);
        if (id == StringPool::kInvalidId) {
          const uint8_t fill = (op == CmpOp::kNe) ? 1 : 0;
          std::fill(flags.begin(), flags.end(), fill);
        } else if (const EncodedColumn* e = c.encoded_state()) {
          EvalDictCodes<StringPool::Id>(
              *e, static_cast<int64_t>(e->dict_strs.size()), num_rows_, op,
              id, [&](int64_t k) { return e->dict_strs[k]; }, &flags);
        } else {
          EvalTyped<StringPool::Id>(num_rows_, op, id,
                                    [&](int64_t i) { return c.GetStr(i); },
                                    &flags);
        }
      } else {
        // Ordering comparisons resolve bytes per distinct id via the pool.
        const std::string_view rhs_view = rhs;
        if (const EncodedColumn* e = c.encoded_state()) {
          EvalDictCodes<std::string_view>(
              *e, static_cast<int64_t>(e->dict_strs.size()), num_rows_, op,
              rhs_view, [&](int64_t k) { return pool_->Get(e->dict_strs[k]); },
              &flags);
        } else {
          auto get = [&](int64_t i) { return pool_->Get(c.GetStr(i)); };
          EvalTyped<std::string_view>(num_rows_, op, rhs_view, get, &flags);
        }
      }
      break;
    }
  }
  return Status::OK();
}

Status Table::EvalPredicateExpr(const PredicateExpr& pred,
                                std::vector<int64_t>* keep) const {
  if (pred.disjuncts.empty()) {
    return Status::InvalidArgument("empty predicate expression");
  }
  for (const auto& conj : pred.disjuncts) {
    if (conj.empty()) {
      return Status::InvalidArgument("empty AND-group in predicate");
    }
  }
  // Single leaf: identical to the scalar overloads.
  if (pred.disjuncts.size() == 1 && pred.disjuncts[0].size() == 1) {
    const ParsedPredicate& l = pred.disjuncts[0][0];
    return EvalPredicate(l.column, l.op, l.value, keep);
  }
  std::vector<uint8_t> acc(num_rows_, 0);
  std::vector<uint8_t> conj_flags, leaf_flags;
  for (const auto& conj : pred.disjuncts) {
    conj_flags.assign(num_rows_, 1);
    for (const ParsedPredicate& l : conj) {
      RINGO_RETURN_NOT_OK(EvalPredicateFlags(l.column, l.op, l.value,
                                             &leaf_flags));
      ParallelFor(0, num_rows_,
                  [&](int64_t i) { conj_flags[i] &= leaf_flags[i]; });
    }
    ParallelFor(0, num_rows_, [&](int64_t i) { acc[i] |= conj_flags[i]; });
  }
  *keep = FlagsToKeep(acc);
  return Status::OK();
}

Status Table::SelectInPlace(const PredicateExpr& pred) {
  trace::Span span("Table/SelectInPlace");
  span.AddAttr("rows", num_rows_);
  std::vector<int64_t> keep;
  RINGO_RETURN_NOT_OK(EvalPredicateExpr(pred, &keep));
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  CompactKeep(keep);
  return Status::OK();
}

Result<TablePtr> Table::Select(const PredicateExpr& pred) const {
  trace::Span span("Table/Select");
  span.AddAttr("rows", num_rows_);
  std::vector<int64_t> keep;
  RINGO_RETURN_NOT_OK(EvalPredicateExpr(pred, &keep));
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  return GatherRows(keep);
}

Result<std::vector<int64_t>> Table::MatchingRows(
    const PredicateExpr& pred) const {
  std::vector<int64_t> keep;
  RINGO_RETURN_NOT_OK(EvalPredicateExpr(pred, &keep));
  return keep;
}

Status Table::SelectInPlace(std::string_view col, CmpOp op,
                            const Value& value) {
  trace::Span span("Table/SelectInPlace");
  span.AddAttr("rows", num_rows_);
  std::vector<int64_t> keep;
  RINGO_RETURN_NOT_OK(EvalPredicate(col, op, value, &keep));
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  CompactKeep(keep);
  return Status::OK();
}

Result<std::vector<int64_t>> Table::MatchingRows(std::string_view col,
                                                 CmpOp op,
                                                 const Value& value) const {
  std::vector<int64_t> keep;
  RINGO_RETURN_NOT_OK(EvalPredicate(col, op, value, &keep));
  return keep;
}

Result<TablePtr> Table::Select(std::string_view col, CmpOp op,
                               const Value& value) const {
  trace::Span span("Table/Select");
  span.AddAttr("rows", num_rows_);
  std::vector<int64_t> keep;
  RINGO_RETURN_NOT_OK(EvalPredicate(col, op, value, &keep));
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  return GatherRows(keep);
}

TablePtr Table::SelectRows(
    const std::function<bool(const Table&, int64_t)>& pred) const {
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < num_rows_; ++i) {
    if (pred(*this, i)) keep.push_back(i);
  }
  return GatherRows(keep);
}

void Table::SelectRowsInPlace(
    const std::function<bool(const Table&, int64_t)>& pred) {
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < num_rows_; ++i) {
    if (pred(*this, i)) keep.push_back(i);
  }
  CompactKeep(keep);
}

// ----------------------------------------------------------------- project

Result<TablePtr> Table::Project(const std::vector<std::string>& cols) const {
  Schema out_schema;
  std::vector<int> idx;
  for (const std::string& name : cols) {
    RINGO_ASSIGN_OR_RETURN(const int i, schema_.FindColumn(name));
    RINGO_RETURN_NOT_OK(out_schema.AddColumn(name, schema_.column(i).type));
    idx.push_back(i);
  }
  TablePtr out = Create(std::move(out_schema), pool_);
  for (size_t k = 0; k < idx.size(); ++k) {
    out->cols_[k] = cols_[idx[k]];  // Column copy.
  }
  out->row_ids_ = row_ids_;
  out->num_rows_ = num_rows_;
  out->next_row_id_ = next_row_id_;
  return out;
}

// ------------------------------------------------------------------- order

Result<TablePtr> Table::OrderBy(const std::vector<std::string>& cols,
                                const std::vector<bool>& ascending) const {
  std::vector<int> idx;
  RINGO_RETURN_NOT_OK(ResolveColumns(*this, cols, &idx));
  trace::Span span("Table/OrderBy");
  span.AddAttr("rows", num_rows_);
  span.AddAttr("key_columns", static_cast<int64_t>(idx.size()));
  // The stable-sort permutation (see table/key_normalize.h).
  std::vector<int64_t> perm;
  internal::SortedPermByKeys(*this, idx, ascending, &perm);
  return GatherRows(perm);
}

// ------------------------------------------------------------------ unique

Result<TablePtr> Table::Unique(const std::vector<std::string>& cols) const {
  std::vector<int> idx;
  RINGO_RETURN_NOT_OK(ResolveColumns(*this, cols, &idx));
  trace::Span span("Table/Unique");
  span.AddAttr("rows", num_rows_);
  std::vector<int64_t> perm;
  std::vector<uint8_t> new_run;
  internal::SortedPermByKeys(*this, idx, {}, &perm, &new_run);
  // First physical row of each run of equal keys (which is also its
  // smallest position, thanks to the position tiebreak).
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < num_rows_; ++i) {
    if (new_run[i]) keep.push_back(perm[i]);
  }
  std::sort(keep.begin(), keep.end());
  return GatherRows(keep);
}

// ---------------------------------------------------------------- internal

void Table::CompactKeep(const std::vector<int64_t>& keep) {
  for (Column& c : cols_) c.CompactKeep(keep);
  const int64_t n = static_cast<int64_t>(keep.size());
  for (int64_t i = 0; i < n; ++i) row_ids_[i] = row_ids_[keep[i]];
  row_ids_.resize(n);
  num_rows_ = n;
}

TablePtr Table::GatherRows(const std::vector<int64_t>& idx) const {
  TablePtr out = Create(schema_, pool_);
  for (int c = 0; c < num_columns(); ++c) {
    out->cols_[c] = cols_[c].Gather(idx);
  }
  out->row_ids_.resize(idx.size());
  const int64_t n = static_cast<int64_t>(idx.size());
  ParallelFor(0, n, [&](int64_t i) { out->row_ids_[i] = row_ids_[idx[i]]; });
  out->num_rows_ = n;
  out->next_row_id_ = next_row_id_;
  return out;
}

int64_t Table::MemoryUsageBytes() const {
  int64_t bytes = static_cast<int64_t>(row_ids_.capacity() * sizeof(int64_t));
  for (const Column& c : cols_) bytes += c.MemoryUsageBytes();
  return bytes;
}

int64_t Table::EncodeColumns() {
  trace::Span span("Table/EncodeColumns");
  int64_t encoded = 0;
  for (Column& c : cols_) encoded += c.Encode() ? 1 : 0;
  RINGO_COUNTER_ADD("table/columns_encoded", encoded);
  span.AddAttr("encoded", encoded);
  PublishMemGauges();
  return encoded;
}

void Table::PublishMemGauges() const {
  const int64_t bytes = MemoryUsageBytes();
  metrics::GaugeSet("mem/table_bytes", static_cast<double>(bytes));
  metrics::GaugeSet("mem/bytes_per_row",
                    num_rows_ == 0 ? 0.0
                                   : static_cast<double>(bytes) /
                                         static_cast<double>(num_rows_));
}

bool Table::ContentEquals(const Table& other) const {
  if (schema_ != other.schema_ || num_rows_ != other.num_rows_) return false;
  std::vector<int> idx(num_columns());
  std::iota(idx.begin(), idx.end(), 0);
  RowComparator cmp(this, &other, idx, idx);
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (!cmp.Equal(r, r)) return false;
  }
  return true;
}

}  // namespace ringo
