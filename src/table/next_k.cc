// NextK (§2.3): Ringo's temporal graph-construction operator. Rows are
// grouped by `group_col` and ordered by `order_col` within each group; each
// row is then joined to its up-to-k immediate successors. Typical use:
// connect a user's consecutive actions, or each question to the next k
// posts in a thread.
#include "table/key_normalize.h"
#include "table/table.h"
#include "table/table_build.h"
#include "util/trace.h"

namespace ringo {

Result<TablePtr> Table::NextK(const Table& t, std::string_view group_col,
                              std::string_view order_col, int k) {
  if (k < 1) {
    return Status::InvalidArgument("NextK requires k >= 1");
  }
  RINGO_ASSIGN_OR_RETURN(const int gci,
                         t.FindColumn(group_col));
  RINGO_ASSIGN_OR_RETURN(const int oci, t.FindColumn(order_col));

  trace::Span span("Table/NextK");
  span.AddAttr("rows", t.NumRows());
  span.AddAttr("k", static_cast<int64_t>(k));

  // Sort rows by (group, order, position) — the position tiebreak keeps
  // ties deterministic and respects input order. The radix path sorts
  // normalized (group, order, row) records and reads the group boundaries
  // off the group keys (run_prefix_cols = 1).
  const int64_t n = t.NumRows();
  std::vector<int64_t> perm;
  std::vector<uint8_t> new_group;
  internal::SortedPermByKeys(t, {gci, oci}, {}, &perm, &new_group,
                             /*run_prefix_cols=*/1);

  std::vector<int64_t> pred_rows, succ_rows;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j <= i + k && j < n; ++j) {
      if (new_group[j]) break;  // Left the group.
      pred_rows.push_back(perm[i]);
      succ_rows.push_back(perm[j]);
    }
  }
  span.AddAttr("pairs", static_cast<int64_t>(pred_rows.size()));
  return internal::BuildPairedOutput(t, t, pred_rows, succ_rows);
}

}  // namespace ringo
