#include "util/radix_sort.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {

namespace radix {

namespace {
// Shared per-entry-point epilogue: one span per sort with the record count
// and the number of scatter passes that actually ran (pass skipping makes
// this data-dependent, which is exactly why it is worth recording).
void RecordSort(trace::Span& span, int64_t n, int passes) {
  span.AddAttr("n", n);
  span.AddAttr("passes", static_cast<int64_t>(passes));
  RINGO_COUNTER_ADD("radix/sorts", 1);
  RINGO_COUNTER_ADD("radix/passes", passes);
  RINGO_COUNTER_ADD("radix/records", n);
}
}  // namespace

}  // namespace radix

void RadixSortU64(uint64_t* keys, int64_t n) {
  trace::Span span("radix_sort/u64");
  const int passes = internal::LsdRadixSort<1>(
      keys, n, [](uint64_t k, int) { return k; });
  radix::RecordSort(span, n, passes);
}

void RadixSortI64(int64_t* keys, int64_t n) {
  trace::Span span("radix_sort/i64");
  const int passes = internal::LsdRadixSort<1>(
      keys, n, [](int64_t k, int) { return radix::Int64Key(k); });
  radix::RecordSort(span, n, passes);
}

void RadixSortI64Pairs(std::pair<int64_t, int64_t>* v, int64_t n) {
  // Word 0 (least significant) is `second`: LSD passes over it first, then
  // `first`, yielding the lexicographic (first, second) order of std::pair.
  trace::Span span("radix_sort/i64_pairs");
  const int passes = internal::LsdRadixSort<2>(
      v, n, [](const std::pair<int64_t, int64_t>& e, int w) {
        return radix::Int64Key(w == 0 ? e.second : e.first);
      });
  radix::RecordSort(span, n, passes);
}

void RadixSortKeyRows(KeyRow* v, int64_t n) {
  trace::Span span("radix_sort/key_rows");
  const int passes = internal::LsdRadixSort<1>(
      v, n, [](const KeyRow& r, int) { return r.key; });
  radix::RecordSort(span, n, passes);
}

void RadixSortKeyRows2(KeyRow2* v, int64_t n) {
  trace::Span span("radix_sort/key_rows2");
  const int passes = internal::LsdRadixSort<2>(
      v, n, [](const KeyRow2& r, int w) { return w == 0 ? r.lo : r.hi; });
  radix::RecordSort(span, n, passes);
}

}  // namespace ringo
