#include "table/table_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string_view>
#include <unordered_map>

#include "storage/flat_hash_map.h"
#include "storage/mmap_file.h"
#include "util/checksum.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Smallest slice of the input worth a parse chunk of its own: below it the
// fork/join costs more than the parse.
constexpr size_t kMinChunkBytes = size_t{16} << 10;

// Reads the whole file into one buffer sized from its length. Reading runs
// to end of file, so a file that shrinks while it is read yields a shorter
// text (and whatever Status that text parses to), never a fault, and one
// that grows or has no size (a pipe) is read to its end.
Result<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string buf;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    buf.resize(static_cast<size_t>(st.st_size));
  }
  size_t len = 0;
  char spill[4096];  // Bytes beyond the stat size.
  for (;;) {
    const bool in_buf = len < buf.size();
    const ssize_t got =
        in_buf ? ::read(fd, buf.data() + len, buf.size() - len)
               : ::read(fd, spill, sizeof(spill));
    if (got < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("read failed for '" + path + "': " + err);
    }
    if (got == 0) break;
    if (!in_buf) buf.append(spill, static_cast<size_t>(got));
    len += static_cast<size_t>(got);
  }
  ::close(fd);
  buf.resize(len);
  return buf;
}

// Calls fn(line) for each line of `text` ('\n'-terminated, or the final
// unterminated one) with one trailing '\r' removed, until fn returns false.
// Returns the offset just past the last line visited.
template <typename Fn>
size_t ForEachLine(std::string_view text, Fn&& fn) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = std::min(end + 1, text.size());
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!fn(line)) break;
  }
  return start;
}

// Blank lines and '#' comments carry no row.
bool IsDataLine(std::string_view line) {
  return !line.empty() && line.front() != '#';
}

// A chunk's string dictionary: each distinct field gets the next code, so
// codes follow first occurrence in row-major order. Keys are views into the
// file buffer; no bytes are copied.
class ChunkDict {
 public:
  StringPool::Id Code(std::string_view s) {
    const auto [code, fresh] =
        codes_.Insert(s, static_cast<StringPool::Id>(strs_.size()));
    if (fresh) {
      RINGO_CHECK_LT(strs_.size(), size_t{INT32_MAX})
          << "more than 2^31 distinct strings in one load chunk";
      strs_.push_back(s);
    }
    return *code;
  }
  const std::vector<std::string_view>& strings() const { return strs_; }

 private:
  FlatHashMap<std::string_view, StringPool::Id> codes_;
  std::vector<std::string_view> strs_;  // Code -> bytes.
};

// One parse chunk: a run of whole lines of the data region.
struct Chunk {
  std::string_view text;
  int64_t lines = 0;       // File lines, blank and comment lines included.
  int64_t rows = 0;        // Data lines.
  int64_t first_line = 0;  // File line number of the chunk's first line.
  int64_t first_row = 0;   // Table row the chunk's first data line fills.
  Status status;           // The chunk's first parse error.
  ChunkDict dict;
  std::vector<StringPool::Id> pool_ids;  // Dictionary code -> pool id.
};

// Where a chunk writes column c: the final column's storage, typed.
struct ColumnSink {
  ColumnType type;
  std::string_view name;
  int64_t* ints = nullptr;
  double* floats = nullptr;
  StringPool::Id* strs = nullptr;  // Chunk-local codes until remapped.
};

Status FieldError(int64_t lineno, std::string_view column,
                  const Status& cause) {
  return Status::InvalidArgument("line " + std::to_string(lineno) +
                                 ", column '" + std::string(column) +
                                 "': " + cause.message());
}

// Parses one data line into row `row` of the sinks, walking its fields in
// place. String fields get the chunk dictionary's codes.
Status ParseLine(const std::vector<ColumnSink>& sinks, std::string_view line,
                 int64_t lineno, int64_t row, ChunkDict* dict) {
  const size_t ncols = sinks.size();
  size_t pos = 0;  // Start of the next field; line.size() + 1 past the last.
  size_t c = 0;
  for (; c < ncols && pos <= line.size(); ++c) {
    size_t end = line.find('\t', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view field = line.substr(pos, end - pos);
    pos = end + 1;
    const ColumnSink& sink = sinks[c];
    switch (sink.type) {
      case ColumnType::kInt: {
        const Result<int64_t> v = ParseInt64(field);
        if (!v.ok()) return FieldError(lineno, sink.name, v.status());
        sink.ints[row] = *v;
        break;
      }
      case ColumnType::kFloat: {
        const Result<double> v = ParseDouble(field);
        if (!v.ok()) return FieldError(lineno, sink.name, v.status());
        sink.floats[row] = *v;
        break;
      }
      case ColumnType::kString:
        sink.strs[row] = dict->Code(field);
        break;
    }
  }
  if (c < ncols || pos <= line.size()) {
    const auto got = std::count(line.begin(), line.end(), '\t') + 1;
    return Status::InvalidArgument(
        "line " + std::to_string(lineno) + ": expected " +
        std::to_string(ncols) + " fields, got " + std::to_string(got));
  }
  return Status::OK();
}

// Splits `data` into at most `parts` runs of whole lines of about equal
// byte length.
std::vector<Chunk> SplitChunks(std::string_view data, int parts) {
  std::vector<Chunk> chunks(parts);
  size_t begin = 0;
  for (int k = 0; k < parts; ++k) {
    size_t end = data.size();
    if (k + 1 < parts) {
      const size_t target = std::max(begin, data.size() / parts * (k + 1));
      end = data.find('\n', target);
      end = end == std::string_view::npos ? data.size() : end + 1;
    }
    chunks[k].text = data.substr(begin, end - begin);
    begin = end;
  }
  return chunks;
}

}  // namespace

Result<TablePtr> LoadTableTSV(const Schema& schema, const std::string& path,
                              std::shared_ptr<StringPool> pool,
                              bool has_header) {
  trace::Span span("Table/LoadTableTSV");
  const int ncols = schema.num_columns();
  std::string text;
  std::vector<Chunk> chunks;
  int64_t n = 0;
  {
    trace::Span phase("Table/LoadTableTSV/read");
    RINGO_ASSIGN_OR_RETURN(text, ReadFileBytes(path));
    // The header is the first non-blank line, '#'-prefixed or not.
    std::string_view data = text;
    int64_t header_lines = 0;
    if (has_header) {
      data.remove_prefix(ForEachLine(data, [&](std::string_view line) {
        ++header_lines;
        return line.empty();
      }));
    }
    const auto parts = static_cast<int>(std::clamp<size_t>(
        data.size() / kMinChunkBytes, 1, static_cast<size_t>(NumThreads())));
    chunks = SplitChunks(data, parts);
    ParallelFor(0, parts, [&](int64_t k) {
      Chunk& ch = chunks[k];
      ForEachLine(ch.text, [&](std::string_view line) {
        ++ch.lines;
        ch.rows += IsDataLine(line);
        return true;
      });
    });
    int64_t line = header_lines + 1;
    for (Chunk& ch : chunks) {
      ch.first_line = line;
      ch.first_row = n;
      line += ch.lines;
      n += ch.rows;
    }
    phase.AddAttr("rows", n);
    phase.AddAttr("bytes", static_cast<int64_t>(text.size()));
  }

  TablePtr table = Table::Create(schema, std::move(pool));
  std::vector<ColumnSink> sinks;
  bool has_strings = false;
  for (int c = 0; c < ncols; ++c) {
    Column& col = table->mutable_column(c);
    col.Resize(n);
    ColumnSink sink{schema.column(c).type, schema.column(c).name};
    switch (sink.type) {
      case ColumnType::kInt: sink.ints = col.ints().data(); break;
      case ColumnType::kFloat: sink.floats = col.floats().data(); break;
      case ColumnType::kString:
        sink.strs = col.strs().data();
        has_strings = true;
        break;
    }
    sinks.push_back(sink);
  }

  {
    trace::Span phase("Table/LoadTableTSV/parse");
    ParallelFor(0, static_cast<int64_t>(chunks.size()), [&](int64_t k) {
      Chunk& ch = chunks[k];
      int64_t lineno = ch.first_line;
      int64_t row = ch.first_row;
      ForEachLine(ch.text, [&](std::string_view line) {
        if (IsDataLine(line)) {
          ch.status = ParseLine(sinks, line, lineno, row++, &ch.dict);
        }
        ++lineno;
        return ch.status.ok();
      });
    });
    // Chunks cover the file in order and each stops at its first error, so
    // the first failed chunk holds the file's first bad line.
    for (const Chunk& ch : chunks) RINGO_RETURN_NOT_OK(ch.status);
    phase.AddAttr("rows", n);
    phase.AddAttr("bytes", static_cast<int64_t>(text.size()));
  }

  if (has_strings) {
    // Only now, with every chunk parsed, do strings reach the shared pool,
    // from this one thread and chunk 0's dictionary first: ids follow
    // first occurrence in the file at every chunk count, and a failed load
    // interns nothing.
    trace::Span phase("Table/LoadTableTSV/intern");
    StringPool& out_pool = *table->pool();
    int64_t bytes = 0;
    for (Chunk& ch : chunks) {
      for (std::string_view s : ch.dict.strings()) {
        ch.pool_ids.push_back(out_pool.GetOrAdd(s));
        bytes += static_cast<int64_t>(s.size());
      }
    }
    ParallelFor(0, static_cast<int64_t>(chunks.size()), [&](int64_t k) {
      const Chunk& ch = chunks[k];
      for (const ColumnSink& sink : sinks) {
        if (sink.strs == nullptr) continue;
        for (int64_t r = ch.first_row; r < ch.first_row + ch.rows; ++r) {
          sink.strs[r] = ch.pool_ids[sink.strs[r]];
        }
      }
    });
    phase.AddAttr("rows", n);
    phase.AddAttr("bytes", bytes);
  }
  RINGO_RETURN_NOT_OK(table->SealAppendedRows(n));
  span.AddAttr("rows", n);
  span.AddAttr("bytes", static_cast<int64_t>(text.size()));
  return table;
}

Status SaveTableTSV(const Table& t, const std::string& path,
                    bool write_header) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  if (write_header) {
    std::vector<std::string> names;
    for (const ColumnSpec& c : t.schema().columns()) names.push_back(c.name);
    out << JoinStrings(names, "\t") << '\n';
  }
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      if (c > 0) out << '\t';
      // Floats are written with max_digits10 precision so a save/load
      // round trip is bit-exact (FormatCell's %.6g is for display only).
      if (t.schema().column(c).type == ColumnType::kFloat) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", t.column(c).GetFloat(r));
        out << buf;
      } else {
        out << t.FormatCell(r, c);
      }
    }
    out << '\n';
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// .rtb binary table format (DESIGN.md §14).
//
// Layout (all integers little-endian; the format is not byte-swapped on
// big-endian hosts — Ringo targets x86-64/AArch64):
//
//   [64-byte header]
//     0  magic "RTB1"
//     4  u32 version (= 1)
//     8  u32 ncols
//     12 u32 flags (reserved, 0)
//     16 i64 nrows
//     24 i64 next_row_id
//     32 u64 dir_offset
//     40 u64 dir_bytes
//     48 u32 dir_crc
//     52 u32 header_crc  (CRC-32 of bytes [0, 52))
//     56 zero padding to 64
//   [segments]   8-byte aligned, zero-padded between; one data segment per
//                column, one dictionary segment per dict-encoded column,
//                one row-id segment (nrows × i64)
//   [directory]  per-column: name, type, on-disk encoding, bit width,
//                for_base, dict_count, then (offset, bytes, crc) for the
//                data and dictionary segments; finally the row-id segment's
//                (offset, bytes, crc)
//
// Plain int/float columns are raw 8-byte values (floats keep their exact
// bit patterns). Encoded columns store their packed code stream verbatim,
// so the loader can hand the column a zero-copy view into the mapping.
// String columns are *always* dictionary-form on disk — pool ids are
// process-local, so the dictionary stores the bytes and the loader
// re-interns them into the target pool.

// Friend of Table: the loader's private-state restore hatch.
class TableBinAccess {
 public:
  static int64_t NextRowId(const Table& t) { return t.next_row_id_; }
  static void Restore(Table& t, std::vector<int64_t> row_ids,
                      int64_t next_row_id) {
    t.num_rows_ = static_cast<int64_t>(row_ids.size());
    t.row_ids_ = std::move(row_ids);
    t.next_row_id_ = next_row_id;
  }
};

namespace {

constexpr char kRtbMagic[4] = {'R', 'T', 'B', '1'};
constexpr uint32_t kRtbVersion = 1;
constexpr size_t kRtbHeaderBytes = 64;
constexpr size_t kRtbHeaderCrcOffset = 52;  // header_crc covers [0, 52)

struct SegRef {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

template <typename T>
void PutNum(std::string* b, T v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutSeg(std::string* b, const SegRef& s) {
  PutNum(b, s.offset);
  PutNum(b, s.bytes);
  PutNum(b, s.crc);
}

// Streaming segment writer: pads to 8-byte alignment before each segment
// and records (offset, bytes, crc).
struct RtbWriter {
  std::ofstream out;
  uint64_t off = 0;

  void Raw(const void* p, size_t n) {
    if (n == 0) return;
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    off += n;
  }
  void Pad8() {
    static constexpr char zeros[8] = {};
    Raw(zeros, static_cast<size_t>(-off & 7));
  }
  SegRef Segment(const void* p, size_t n) {
    Pad8();
    const SegRef s{off, n, Crc32(p, n)};
    Raw(p, n);
    return s;
  }
};

int BitsForDict(int64_t dict_count) {
  return dict_count <= 1
             ? 0
             : std::bit_width(static_cast<uint64_t>(dict_count - 1));
}

// First-occurrence dictionary over a plain string-id vector (the save path
// for string columns that are not already dict-encoded in memory).
void BuildStrDict(const std::vector<StringPool::Id>& v,
                  std::vector<StringPool::Id>* dict,
                  std::vector<uint64_t>* codes) {
  std::unordered_map<StringPool::Id, uint64_t> seen;
  codes->reserve(v.size());
  for (const StringPool::Id id : v) {
    const auto [it, inserted] = seen.emplace(id, dict->size());
    if (inserted) dict->push_back(id);
    codes->push_back(it->second);
  }
}

// Dictionary segment payload for string columns: dict_count entries of
// [u32 length][bytes].
std::string SerializeStrDict(const StringPool& pool,
                             const std::vector<StringPool::Id>& dict) {
  std::string b;
  for (const StringPool::Id id : dict) {
    const std::string_view s = pool.Get(id);
    PutNum(&b, static_cast<uint32_t>(s.size()));
    b.append(s);
  }
  return b;
}

// What one column serializes to, recorded while its segments are written.
struct ColDisk {
  uint8_t enc = 0;  // ColumnEncoding as stored on disk
  uint8_t bits = 0;
  int64_t for_base = 0;
  int64_t dict_count = 0;
  SegRef data;
  SegRef dict;
};

// Bounds-checked reader over the mapped directory bytes.
struct BinCursor {
  const uint8_t* p;
  size_t left;

  bool Bytes(void* dst, size_t n) {
    if (n > left) return false;
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  template <typename T>
  bool Num(T* v) {
    return Bytes(v, sizeof(T));
  }
  bool Str(std::string* s, size_t n) {
    if (n > left) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool Seg(SegRef* s) {
    return Num(&s->offset) && Num(&s->bytes) && Num(&s->crc);
  }
};

struct ColEntry {
  std::string name;
  uint8_t type = 0;
  uint8_t enc = 0;
  uint8_t bits = 0;
  int64_t for_base = 0;
  int64_t dict_count = 0;
  SegRef data;
  SegRef dict;
};

Status MalformedDir(const std::string& why) {
  return Status::Corruption("malformed .rtb directory: " + why);
}

// Verifies a segment lies inside the file and matches its checksum.
Status CheckSegment(const uint8_t* base, size_t file_size, const SegRef& s,
                    const std::string& what) {
  if (s.bytes > file_size || s.offset > file_size - s.bytes) {
    return Status::Corruption("short " + what + " segment");
  }
  if (Crc32(base + s.offset, s.bytes) != s.crc) {
    return Status::Corruption("checksum mismatch in " + what + " segment");
  }
  return Status::OK();
}

}  // namespace

Status SaveTableBin(const Table& t, const std::string& path) {
  trace::Span span("Table/SaveTableBin");
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  RtbWriter w{std::move(f)};
  {
    const char zeros[kRtbHeaderBytes] = {};
    w.Raw(zeros, kRtbHeaderBytes);  // Header placeholder, rewritten below.
  }

  const int64_t nrows = t.NumRows();
  std::vector<ColDisk> cols(t.num_columns());
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const Column& c = t.column(ci);
    ColDisk& d = cols[ci];
    const EncodedColumn* e = c.encoded_state();
    switch (c.type()) {
      case ColumnType::kInt:
        if (e != nullptr) {
          d.enc = static_cast<uint8_t>(e->enc);
          d.bits = static_cast<uint8_t>(e->bits);
          d.for_base = e->for_base;
          if (e->enc == ColumnEncoding::kDictInt) {
            d.dict_count = static_cast<int64_t>(e->dict_ints.size());
            d.dict = w.Segment(e->dict_ints.data(),
                               e->dict_ints.size() * sizeof(int64_t));
          }
          d.data =
              w.Segment(e->words.data(), e->words.size() * sizeof(uint64_t));
        } else {
          d.enc = static_cast<uint8_t>(ColumnEncoding::kPlain);
          d.data = w.Segment(c.ints().data(), nrows * sizeof(int64_t));
        }
        break;
      case ColumnType::kFloat:
        if (e != nullptr) {
          d.enc = static_cast<uint8_t>(e->enc);
          d.bits = static_cast<uint8_t>(e->bits);
          d.dict_count = static_cast<int64_t>(e->dict_floats.size());
          d.dict = w.Segment(e->dict_floats.data(),
                             e->dict_floats.size() * sizeof(double));
          d.data =
              w.Segment(e->words.data(), e->words.size() * sizeof(uint64_t));
        } else {
          d.enc = static_cast<uint8_t>(ColumnEncoding::kPlain);
          d.data = w.Segment(c.floats().data(), nrows * sizeof(double));
        }
        break;
      case ColumnType::kString: {
        // Always dictionary-form on disk (pool ids don't persist).
        d.enc = static_cast<uint8_t>(ColumnEncoding::kDictStr);
        std::vector<StringPool::Id> dict_local;
        std::vector<uint64_t> codes_local;
        std::vector<uint64_t> packed;
        const std::vector<StringPool::Id>* dict = nullptr;
        std::span<const uint64_t> words;
        if (e != nullptr && e->enc == ColumnEncoding::kDictStr) {
          dict = &e->dict_strs;
          d.bits = static_cast<uint8_t>(e->bits);
          words = e->words;
        } else {
          BuildStrDict(c.strs(), &dict_local, &codes_local);
          dict = &dict_local;
          d.bits = static_cast<uint8_t>(
              BitsForDict(static_cast<int64_t>(dict_local.size())));
          if (d.bits > 0) packed = PackCodes(codes_local, d.bits);
          words = packed;
        }
        d.dict_count = static_cast<int64_t>(dict->size());
        const std::string dict_bytes = SerializeStrDict(*t.pool(), *dict);
        d.dict = w.Segment(dict_bytes.data(), dict_bytes.size());
        d.data = w.Segment(words.data(), words.size() * sizeof(uint64_t));
        break;
      }
    }
  }
  const SegRef row_seg =
      w.Segment(t.row_ids().data(), nrows * sizeof(int64_t));

  std::string dir;
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const ColumnSpec& spec = t.schema().column(ci);
    const ColDisk& d = cols[ci];
    PutNum(&dir, static_cast<uint32_t>(spec.name.size()));
    dir.append(spec.name);
    PutNum(&dir, static_cast<uint8_t>(spec.type));
    PutNum(&dir, d.enc);
    PutNum(&dir, d.bits);
    PutNum(&dir, uint8_t{0});
    PutNum(&dir, d.for_base);
    PutNum(&dir, d.dict_count);
    PutSeg(&dir, d.data);
    PutSeg(&dir, d.dict);
  }
  PutSeg(&dir, row_seg);

  w.Pad8();
  const uint64_t dir_offset = w.off;
  const uint32_t dir_crc = Crc32(dir.data(), dir.size());
  w.Raw(dir.data(), dir.size());

  std::string h;
  h.append(kRtbMagic, sizeof(kRtbMagic));
  PutNum(&h, kRtbVersion);
  PutNum(&h, static_cast<uint32_t>(t.num_columns()));
  PutNum(&h, uint32_t{0});  // flags
  PutNum(&h, nrows);
  PutNum(&h, TableBinAccess::NextRowId(t));
  PutNum(&h, dir_offset);
  PutNum(&h, static_cast<uint64_t>(dir.size()));
  PutNum(&h, dir_crc);
  PutNum(&h, Crc32(h.data(), kRtbHeaderCrcOffset));
  h.resize(kRtbHeaderBytes, '\0');
  w.out.seekp(0);
  w.out.write(h.data(), static_cast<std::streamsize>(h.size()));
  w.out.flush();
  if (!w.out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  RINGO_COUNTER_ADD("table_io/save_bin", 1);
  return Status::OK();
}

Result<TablePtr> LoadTableBin(const std::string& path,
                              std::shared_ptr<StringPool> pool) {
  trace::Span span("Table/LoadTableBin");
  RINGO_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> map,
                         MmapFile::Open(path));
  const uint8_t* base = map->data();
  const size_t file_size = map->size();
  if (file_size < kRtbHeaderBytes) {
    return Status::Corruption("'" + path + "': truncated .rtb header");
  }
  if (std::memcmp(base, kRtbMagic, sizeof(kRtbMagic)) != 0) {
    return Status::Corruption("'" + path + "': not an .rtb file (bad magic)");
  }
  BinCursor hc{base + sizeof(kRtbMagic),
               kRtbHeaderBytes - sizeof(kRtbMagic)};
  uint32_t version = 0, ncols = 0, flags = 0;
  int64_t nrows = 0, next_row_id = 0;
  uint64_t dir_offset = 0, dir_bytes = 0;
  uint32_t dir_crc = 0, header_crc = 0;
  hc.Num(&version);
  hc.Num(&ncols);
  hc.Num(&flags);
  hc.Num(&nrows);
  hc.Num(&next_row_id);
  hc.Num(&dir_offset);
  hc.Num(&dir_bytes);
  hc.Num(&dir_crc);
  hc.Num(&header_crc);
  if (version != kRtbVersion) {
    return Status::Corruption("'" + path + "': unsupported .rtb version " +
                              std::to_string(version));
  }
  if (Crc32(base, kRtbHeaderCrcOffset) != header_crc) {
    return Status::Corruption("'" + path + "': header checksum mismatch");
  }
  if (nrows < 0) {
    return Status::Corruption("'" + path + "': negative row count");
  }
  if (dir_bytes > file_size || dir_offset > file_size - dir_bytes ||
      dir_offset < kRtbHeaderBytes) {
    return Status::Corruption("'" + path + "': truncated directory");
  }
  if (Crc32(base + dir_offset, dir_bytes) != dir_crc) {
    return Status::Corruption("'" + path + "': directory checksum mismatch");
  }

  BinCursor cur{base + dir_offset, static_cast<size_t>(dir_bytes)};
  std::vector<ColEntry> entries(ncols);
  Schema schema;
  for (ColEntry& e : entries) {
    uint32_t name_len = 0;
    uint8_t pad = 0;
    if (!cur.Num(&name_len) || !cur.Str(&e.name, name_len) ||
        !cur.Num(&e.type) || !cur.Num(&e.enc) || !cur.Num(&e.bits) ||
        !cur.Num(&pad) || !cur.Num(&e.for_base) || !cur.Num(&e.dict_count) ||
        !cur.Seg(&e.data) || !cur.Seg(&e.dict)) {
      return MalformedDir("truncated column entry");
    }
    if (e.type > static_cast<uint8_t>(ColumnType::kString)) {
      return MalformedDir("bad column type for '" + e.name + "'");
    }
    if (e.bits > 63 || e.dict_count < 0) {
      return MalformedDir("bad encoding metadata for '" + e.name + "'");
    }
    const ColumnType type = static_cast<ColumnType>(e.type);
    const ColumnEncoding enc = static_cast<ColumnEncoding>(e.enc);
    const bool enc_ok =
        (type == ColumnType::kInt &&
         (enc == ColumnEncoding::kPlain || enc == ColumnEncoding::kDictInt ||
          enc == ColumnEncoding::kForInt)) ||
        (type == ColumnType::kFloat &&
         (enc == ColumnEncoding::kPlain ||
          enc == ColumnEncoding::kDictFloat)) ||
        (type == ColumnType::kString && enc == ColumnEncoding::kDictStr);
    if (!enc_ok) {
      return MalformedDir("bad encoding for '" + e.name + "'");
    }
    const Status st = schema.AddColumn(e.name, type);
    if (!st.ok()) {
      return MalformedDir(st.message());
    }
  }
  SegRef row_seg;
  if (!cur.Seg(&row_seg)) {
    return MalformedDir("missing row-id segment entry");
  }
  if (cur.left != 0) {
    return MalformedDir("trailing bytes");
  }

  TablePtr t = Table::Create(std::move(schema), std::move(pool));
  StringPool* out_pool = t->pool().get();
  int64_t zero_copy_cols = 0;
  for (int ci = 0; ci < t->num_columns(); ++ci) {
    const ColEntry& e = entries[ci];
    const ColumnType type = static_cast<ColumnType>(e.type);
    const ColumnEncoding enc = static_cast<ColumnEncoding>(e.enc);
    RINGO_RETURN_NOT_OK(
        CheckSegment(base, file_size, e.data, "column '" + e.name + "' data"));
    RINGO_RETURN_NOT_OK(CheckSegment(base, file_size, e.dict,
                                     "column '" + e.name + "' dictionary"));

    if (enc == ColumnEncoding::kPlain) {
      if (e.data.bytes != static_cast<uint64_t>(nrows) * 8) {
        return Status::Corruption("column '" + e.name +
                                  "': data segment size mismatch");
      }
      // Empty segments skip the copy: a zero-row vector's data() may be
      // null, and memcpy's pointer args are declared nonnull even for n=0.
      if (type == ColumnType::kInt) {
        std::vector<int64_t>& v = t->mutable_column(ci).ints();
        v.resize(nrows);
        if (e.data.bytes != 0)
          std::memcpy(v.data(), base + e.data.offset, e.data.bytes);
      } else {
        std::vector<double>& v = t->mutable_column(ci).floats();
        v.resize(nrows);
        if (e.data.bytes != 0)
          std::memcpy(v.data(), base + e.data.offset, e.data.bytes);
      }
      continue;
    }

    auto ec = std::make_shared<EncodedColumn>();
    ec->enc = enc;
    ec->n = nrows;
    ec->bits = e.bits;
    ec->for_base = e.for_base;
    const uint64_t want_words =
        e.bits == 0
            ? 0
            : (static_cast<uint64_t>(nrows) * e.bits + 63) / 64;
    if (e.data.bytes != want_words * 8) {
      return Status::Corruption("column '" + e.name +
                                "': code stream size mismatch");
    }
    if (want_words > 0) {
      if (e.data.offset % alignof(uint64_t) == 0) {
        ec->BorrowWords(
            std::span(reinterpret_cast<const uint64_t*>(base + e.data.offset),
                      want_words),
            map);
        ++zero_copy_cols;
      } else {
        std::vector<uint64_t> w(want_words);
        std::memcpy(w.data(), base + e.data.offset, want_words * 8);
        ec->AdoptOwnedWords(std::move(w));
      }
    }

    switch (enc) {
      case ColumnEncoding::kForInt:
        break;  // for_base + codes is the whole payload.
      case ColumnEncoding::kDictInt:
        if (e.dict.bytes != static_cast<uint64_t>(e.dict_count) * 8) {
          return Status::Corruption("column '" + e.name +
                                    "': dictionary size mismatch");
        }
        ec->dict_ints.resize(e.dict_count);
        if (e.dict.bytes != 0)
          std::memcpy(ec->dict_ints.data(), base + e.dict.offset,
                      e.dict.bytes);
        break;
      case ColumnEncoding::kDictFloat:
        if (e.dict.bytes != static_cast<uint64_t>(e.dict_count) * 8) {
          return Status::Corruption("column '" + e.name +
                                    "': dictionary size mismatch");
        }
        ec->dict_floats.resize(e.dict_count);
        if (e.dict.bytes != 0)
          std::memcpy(ec->dict_floats.data(), base + e.dict.offset,
                      e.dict.bytes);
        break;
      case ColumnEncoding::kDictStr: {
        BinCursor dc{base + e.dict.offset, static_cast<size_t>(e.dict.bytes)};
        ec->dict_strs.reserve(e.dict_count);
        std::string s;
        for (int64_t i = 0; i < e.dict_count; ++i) {
          uint32_t len = 0;
          if (!dc.Num(&len) || !dc.Str(&s, len)) {
            return Status::Corruption("column '" + e.name +
                                      "': truncated string dictionary");
          }
          ec->dict_strs.push_back(out_pool->GetOrAdd(s));
        }
        if (dc.left != 0) {
          return Status::Corruption("column '" + e.name +
                                    "': string dictionary trailing bytes");
        }
        break;
      }
      case ColumnEncoding::kPlain:
        break;  // unreachable
    }

    // Dict encodings: every code must index the dictionary. A full-width
    // code space (dict_count == 2^bits) cannot overflow; otherwise scan —
    // CRCs catch bit rot, this catches files written wrong.
    if (enc != ColumnEncoding::kForInt && e.bits > 0 &&
        static_cast<uint64_t>(e.dict_count) < (uint64_t{1} << e.bits)) {
      uint64_t max_code = 0;
      for (int64_t i = 0; i < nrows; ++i) {
        max_code = std::max(max_code, ec->Code(i));
      }
      if (max_code >= static_cast<uint64_t>(e.dict_count)) {
        return Status::Corruption("column '" + e.name +
                                  "': code out of dictionary range");
      }
    }
    if (enc != ColumnEncoding::kForInt && nrows > 0 && e.dict_count == 0) {
      return Status::Corruption("column '" + e.name + "': empty dictionary");
    }
    t->mutable_column(ci) = Column(type, std::move(ec));
  }

  RINGO_RETURN_NOT_OK(CheckSegment(base, file_size, row_seg, "row-id"));
  if (row_seg.bytes != static_cast<uint64_t>(nrows) * 8) {
    return Status::Corruption("'" + path + "': row-id segment size mismatch");
  }
  std::vector<int64_t> row_ids(nrows);
  if (row_seg.bytes != 0)
    std::memcpy(row_ids.data(), base + row_seg.offset, row_seg.bytes);
  TableBinAccess::Restore(*t, std::move(row_ids), next_row_id);

  RINGO_COUNTER_ADD("table_io/load_bin", 1);
  RINGO_COUNTER_ADD("table_io/load_bin_zero_copy_cols", zero_copy_cols);
  t->PublishMemGauges();
  return t;
}

Result<TablePtr> LoadTableAuto(const Schema& schema, const std::string& path,
                               std::shared_ptr<StringPool> pool,
                               bool has_header) {
  if (std::string_view(path).ends_with(".rtb")) {
    RINGO_ASSIGN_OR_RETURN(TablePtr t, LoadTableBin(path, std::move(pool)));
    if (schema.num_columns() > 0 && !(t->schema() == schema)) {
      return Status::InvalidArgument(
          "schema mismatch for '" + path + "': file has [" +
          t->schema().ToString() + "], declared [" + schema.ToString() + "]");
    }
    return t;
  }
  return LoadTableTSV(schema, path, std::move(pool), has_header);
}

}  // namespace ringo
