// Table input/output: the paper's TSV front-end (LoadTableTSV) and the
// .rtb binary table format (DESIGN.md §14) — an mmap-able container with a
// fixed header, a per-column segment directory and CRC-32 checksums on
// header, directory and every segment. Encoded columns (dictionary /
// frame-of-reference, column_encoding.h) are stored as their packed code
// stream and loaded zero-copy: the column borrows the mapped bytes and the
// mapping stays alive while any column references it.
#ifndef RINGO_TABLE_TABLE_IO_H_
#define RINGO_TABLE_TABLE_IO_H_

#include <memory>
#include <string>

#include "table/table.h"

namespace ringo {

// Loads a tab-separated file into a table with the given schema. Lines
// starting with '#' and empty lines are skipped; with `has_header` the
// first non-blank line is consumed as the header — even when it is
// '#'-prefixed (the "# col1<TAB>col2" commented-header export format), so
// the first data row is never mistaken for a header.
//
// The file is read once into one buffer and parsed chunk-parallel straight
// into the final columns (DESIGN.md §15). String fields are interned into
// `pool` only after every line parsed, in file order, so the pool ids are
// those of a serial load at every thread count (unless other threads
// intern into the same pool meanwhile), and a failed load leaves the pool
// (size and Version()) untouched. Errors are InvalidArgument
// naming the file's first bad line: "line N: expected K fields, got M" or
// "line N, column '<name>': cannot parse ...", N counted in file lines.
// A missing or unreadable file is IOError. Safe to call concurrently with
// other loads into the same pool.
Result<TablePtr> LoadTableTSV(const Schema& schema, const std::string& path,
                              std::shared_ptr<StringPool> pool = nullptr,
                              bool has_header = false);

// Writes the table as TSV; optionally with a header row of column names.
Status SaveTableTSV(const Table& t, const std::string& path,
                    bool write_header = false);

// Writes the table in the .rtb binary format. Plain int/float columns are
// stored as raw little-endian 8-byte values (floats keep their exact bit
// pattern, including NaN payloads and signed zeros); encoded columns store
// their packed code stream + dictionary; string columns always store a
// dictionary of bytes (pool ids are process-local and never hit disk).
Status SaveTableBin(const Table& t, const std::string& path);

// Maps an .rtb file and reconstructs the table (schema comes from the
// file). Header, directory and segment checksums are verified; any
// mismatch or truncation yields Status::Corruption. Dictionary / FOR
// columns come back *encoded*, borrowing their code stream straight from
// the mapping (zero copy); the mapping is released once no column
// references it.
Result<TablePtr> LoadTableBin(const std::string& path,
                              std::shared_ptr<StringPool> pool = nullptr);

// Extension dispatch for the query front-end's `load`: paths ending in
// ".rtb" go through LoadTableBin (and, when `schema` is non-empty, must
// match it exactly); everything else parses as TSV with `schema`.
Result<TablePtr> LoadTableAuto(const Schema& schema, const std::string& path,
                               std::shared_ptr<StringPool> pool = nullptr,
                               bool has_header = false);

}  // namespace ringo

#endif  // RINGO_TABLE_TABLE_IO_H_
