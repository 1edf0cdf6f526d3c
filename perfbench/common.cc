#include "common.h"

#include <sys/resource.h>

namespace perfbench {

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

ringo::TablePtr EdgeTable(const std::vector<ringo::Edge>& edges) {
  ringo::Schema schema{{"src", ringo::ColumnType::kInt},
                       {"dst", ringo::ColumnType::kInt}};
  ringo::TablePtr t = ringo::Table::Create(std::move(schema));
  ringo::Column& src = t->mutable_column(0);
  ringo::Column& dst = t->mutable_column(1);
  const int64_t n = static_cast<int64_t>(edges.size());
  src.Resize(n);
  dst.Resize(n);
  for (int64_t i = 0; i < n; ++i) {
    src.SetInt(i, edges[i].first);
    dst.SetInt(i, edges[i].second);
  }
  t->SealAppendedRows(n).Abort("EdgeTable");
  return t;
}

}  // namespace perfbench
