// Order-preserving key normalization: maps table column values onto
// uint64 keys whose unsigned order equals RowComparator's order, so the
// sort-driven operators (OrderBy, GroupBy, Unique, NextK, TopK, set ops)
// can run the radix kernel (util/radix_sort.h) instead of an indirect
// comparison per element.
//
// Normalization rules (DESIGN.md "Sort kernels"):
//   * int64  → sign-bit flip (radix::Int64Key);
//   * float  → total-order bits with -0.0 collapsed onto +0.0
//              (radix::FloatKey);
//   * string → byte-order rank of the interned pool id: the pool's
//              distinct strings are sorted once by bytes and each id keyed
//              by its rank, so key order equals byte order even though
//              pool ids are assigned in interning order;
//   * descending columns → bitwise complement of the key.
//
// Kernel selection: the radix path handles one or two key columns of any
// scalar type; three or more key columns take the comparison ParallelSort
// through RowComparator, the only path for that input. The radix
// permutation equals a stable comparison sort over RowComparator — the
// radix sort is stable over an ascending-row input, which is exactly the
// comparison path's physical-position tiebreak — and the parity suites
// check it against such a reference in tests/.
#ifndef RINGO_TABLE_KEY_NORMALIZE_H_
#define RINGO_TABLE_KEY_NORMALIZE_H_

#include <cstdint>
#include <vector>

#include "table/table.h"

namespace ringo {
namespace internal {

// Byte-order ranks of every interned string: ranks[id] is the position of
// id's bytes in the lexicographic order of the pool's distinct strings.
// O(P log P) comparison sort over the P distinct strings. Uncached
// reference implementation kept for parity tests; the sort operators go
// through StringPool::ByteOrderRanks(), which memoizes the result behind
// the pool's version counter.
std::vector<uint32_t> ByteOrderRanks(const StringPool& pool);

// Fills keys[0, NumRows) with order-preserving uint64 keys for column
// `ci`; complements them when !ascending.
void NormalizedColumnKeys(const Table& t, int ci, bool ascending,
                          uint64_t* keys);

// Sorts a row permutation of `t` by `cols` (RowComparator order, physical
// position breaking ties) — the one sort entry point of every sort-driven
// operator. One or two key columns take the radix kernel over normalized
// keys; zero or three-plus take the comparison ParallelSort.
//
// Fills `perm` and, when `new_run` is non-null, sets (*new_run)[i] = 1 iff
// sorted position i starts a new run of rows that are distinct on the
// first `run_prefix_cols` columns (default: all of them). NextK passes
// run_prefix_cols = 1 to get group boundaries from a (group, order) sort.
void SortedPermByKeys(const Table& t, const std::vector<int>& cols,
                      const std::vector<bool>& ascending,
                      std::vector<int64_t>* perm,
                      std::vector<uint8_t>* new_run = nullptr,
                      int run_prefix_cols = -1);

}  // namespace internal
}  // namespace ringo

#endif  // RINGO_TABLE_KEY_NORMALIZE_H_
