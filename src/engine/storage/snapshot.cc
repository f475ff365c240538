#include "engine/storage/snapshot.h"

#include <cctype>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/durable_fs.h"
#include "common/fault_injection.h"
#include "engine/database.h"
#include "engine/storage/wire_format.h"

namespace tip::engine {

namespace {

using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::Reader;

constexpr char kMagicV1[] = "TIPSNAP1";
constexpr char kMagicV2[] = "TIPSNAP2";
constexpr size_t kMagicLen = 8;
constexpr char kFooterMagic[] = "TIPFOOT1";

// Structural sanity caps. A legitimate snapshot never gets near these;
// a garbage length field almost always does, so they turn attempted
// huge allocations into clean Corruption errors.
constexpr uint64_t kMaxTables = 1u << 20;
constexpr uint64_t kMaxColumns = 1u << 16;
constexpr uint64_t kMaxIndexes = 1u << 16;

/// Snapshot bytes are built as consecutive chunks of about this size:
/// one table's rows can be most of the file, and one string would hold
/// them with up to as much again in growth slack, plus a second copy
/// when the section is framed.
constexpr size_t kChunkBytes = size_t{1} << 20;

/// Serializes one table into a v2 section body (also the v1 per-table
/// grammar), appending to `chunks->back()` and starting a fresh chunk
/// after any row that fills it.
Status AppendTableBody(const Database& db, const std::string& name,
                       std::vector<std::string>* chunks) {
  const TypeRegistry& types = db.types();
  TIP_ASSIGN_OR_RETURN(const Table* table, db.catalog().GetTable(name));
  std::string* out = &chunks->back();
  PutString(table->name(), out);
  PutU64(table->columns().size(), out);
  for (const Column& col : table->columns()) {
    PutString(col.name, out);
    PutString(types.Get(col.type).name, out);
  }
  PutU64(table->interval_indexes().size(), out);
  for (const IntervalIndexDef& index : table->interval_indexes()) {
    PutString(index.name, out);
    PutU64(index.column, out);
  }
  PutU64(table->heap().row_count(), out);
  HeapTable::Cursor cursor = table->heap().Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    for (const Datum& value : *row) {
      if (value.is_null()) {
        out->push_back(0);
        continue;
      }
      out->push_back(1);
      PutString(types.Serialize(value), out);
    }
    if (out->size() >= kChunkBytes - kChunkBytes / 8) {
      out = &chunks->emplace_back();
    }
  }
  return Status::OK();
}

/// The snapshot file's bytes, in order, as chunks.
Result<std::vector<std::string>> SnapshotChunks(const Database& db) {
  std::vector<std::string> chunks(1, std::string(kMagicV2, kMagicLen));
  const std::vector<std::string> names = db.catalog().TableNames();
  PutU64(names.size(), &chunks.back());
  for (const std::string& name : names) {
    // The section's length and CRC precede its body: reserve them, and
    // fill them in once the body is serialized.
    const size_t frame_chunk = chunks.size() - 1;
    const size_t frame_pos = chunks.back().size();
    PutU64(0, &chunks.back());
    PutU32(0, &chunks.back());
    const size_t body_chunk = chunks.size();
    chunks.emplace_back();
    TIP_RETURN_IF_ERROR(AppendTableBody(db, name, &chunks));
    std::string frame;
    uint64_t body_size = 0;
    uint32_t body_crc = 0;
    for (size_t i = body_chunk; i < chunks.size(); ++i) {
      body_size += chunks[i].size();
      body_crc = Crc32Update(body_crc, chunks[i]);
    }
    PutU64(body_size, &frame);
    PutU32(body_crc, &frame);
    chunks[frame_chunk].replace(frame_pos, frame.size(), frame);
  }
  uint64_t payload = 0;
  for (const std::string& chunk : chunks) payload += chunk.size();
  std::string footer(kFooterMagic, kMagicLen);
  PutU64(names.size(), &footer);
  PutU64(payload, &footer);
  PutU32(Crc32(footer), &footer);
  std::string& tail = chunks.emplace_back();
  PutU64(footer.size(), &tail);
  tail.append(footer);
  return chunks;
}

/// Parses one table section body and creates the table. The body must
/// be consumed exactly. On success appends the created table's name to
/// `created` so a later failure can undo the whole load.
Status ApplyTableBody(Database* db, std::string_view body,
                      std::vector<std::string>* created) {
  Reader reader(body);
  const TypeRegistry& types = db->types();

  TIP_ASSIGN_OR_RETURN(std::string_view name, reader.String());
  TIP_ASSIGN_OR_RETURN(uint64_t column_count, reader.U64());
  // Each column needs at least two length prefixes; a count the
  // remaining bytes cannot possibly hold is garbage, and must be caught
  // BEFORE reserve() turns it into a giant allocation.
  if (column_count > kMaxColumns ||
      column_count * 16 > reader.remaining()) {
    return Status::Corruption("snapshot column count out of bounds");
  }
  std::vector<Column> columns;
  columns.reserve(column_count);
  for (uint64_t c = 0; c < column_count; ++c) {
    TIP_ASSIGN_OR_RETURN(std::string_view col_name, reader.String());
    TIP_ASSIGN_OR_RETURN(std::string_view type_name, reader.String());
    Result<TypeId> type = types.FindByName(type_name);
    if (!type.ok()) {
      return Status::NotFound(
          "snapshot uses type '" + std::string(type_name) +
          "', which is not installed (install the DataBlade first?)");
    }
    columns.push_back({std::string(col_name), *type});
  }
  if (columns.empty()) {
    return Status::Corruption("snapshot table has no columns");
  }
  TIP_ASSIGN_OR_RETURN(Table * table,
                       db->catalog().CreateTable(name, std::move(columns)));
  created->push_back(table->name());

  TIP_ASSIGN_OR_RETURN(uint64_t index_count, reader.U64());
  if (index_count > kMaxIndexes || index_count * 16 > reader.remaining()) {
    return Status::Corruption("snapshot index count out of bounds");
  }
  for (uint64_t i = 0; i < index_count; ++i) {
    TIP_ASSIGN_OR_RETURN(std::string_view index_name, reader.String());
    TIP_ASSIGN_OR_RETURN(uint64_t column, reader.U64());
    if (column >= table->columns().size()) {
      return Status::Corruption("snapshot index column out of range");
    }
    // Recreate through the same path CREATE INDEX uses so the access
    // method's key function is re-attached.
    const std::string sql = "CREATE INDEX " + std::string(index_name) +
                            " ON " + table->name() + " (" +
                            table->columns()[column].name +
                            ") USING interval";
    TIP_ASSIGN_OR_RETURN(ResultSet created_index, db->Execute(sql));
    (void)created_index;
  }

  TIP_ASSIGN_OR_RETURN(uint64_t row_count, reader.U64());
  // Each row carries at least one flag byte per column.
  const uint64_t min_bytes_per_row = table->columns().size();
  if (min_bytes_per_row != 0 &&
      row_count > reader.remaining() / min_bytes_per_row) {
    return Status::Corruption("snapshot row count out of bounds");
  }
  for (uint64_t r = 0; r < row_count; ++r) {
    Row row;
    row.reserve(table->columns().size());
    for (const Column& col : table->columns()) {
      TIP_ASSIGN_OR_RETURN(std::string_view flag, reader.Bytes(1));
      if (flag[0] == 0) {
        row.push_back(Datum::NullOf(col.type));
        continue;
      }
      if (flag[0] != 1) {
        return Status::Corruption("snapshot null flag is neither 0 nor 1");
      }
      TIP_ASSIGN_OR_RETURN(std::string_view payload, reader.String());
      const TypeOps& ops = types.Get(col.type).ops;
      Result<Datum> value = ops.deserialize ? ops.deserialize(payload)
                                            : ops.parse(payload);
      if (!value.ok()) return value.status();
      row.push_back(std::move(*value));
    }
    table->heap().Insert(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot table section");
  }
  return Status::OK();
}

/// Undo for a failed load: drops the tables the load created, restoring
/// the all-or-nothing contract.
void DropCreated(Database* db, const std::vector<std::string>& created) {
  for (const std::string& name : created) {
    (void)db->catalog().DropTable(name);
  }
}

/// Legacy v1 loader: one unframed stream, no checksums. Kept so
/// pre-existing snapshot files stay loadable; all bounds checks apply.
Status LoadSnapshotV1(Database* db, std::string_view payload,
                      std::vector<std::string>* created) {
  Reader reader(payload);
  TIP_ASSIGN_OR_RETURN(uint64_t table_count, reader.U64());
  if (table_count > kMaxTables) {
    return Status::Corruption("snapshot table count out of bounds");
  }
  for (uint64_t t = 0; t < table_count; ++t) {
    // v1 has no section framing: each table grammar is parsed in place
    // over the rest of the stream (ApplyTableBody can't be reused — it
    // requires exact consumption of a framed body).
    TIP_ASSIGN_OR_RETURN(std::string_view rest,
                         reader.Bytes(reader.remaining()));
    Reader body(rest);
    const TypeRegistry& types = db->types();
    TIP_ASSIGN_OR_RETURN(std::string_view name, body.String());
    TIP_ASSIGN_OR_RETURN(uint64_t column_count, body.U64());
    if (column_count > kMaxColumns ||
        column_count * 16 > body.remaining()) {
      return Status::Corruption("snapshot column count out of bounds");
    }
    std::vector<Column> columns;
    columns.reserve(column_count);
    for (uint64_t c = 0; c < column_count; ++c) {
      TIP_ASSIGN_OR_RETURN(std::string_view col_name, body.String());
      TIP_ASSIGN_OR_RETURN(std::string_view type_name, body.String());
      Result<TypeId> type = types.FindByName(type_name);
      if (!type.ok()) {
        return Status::NotFound(
            "snapshot uses type '" + std::string(type_name) +
            "', which is not installed (install the DataBlade first?)");
      }
      columns.push_back({std::string(col_name), *type});
    }
    TIP_ASSIGN_OR_RETURN(Table * table,
                         db->catalog().CreateTable(name,
                                                   std::move(columns)));
    created->push_back(table->name());

    TIP_ASSIGN_OR_RETURN(uint64_t index_count, body.U64());
    if (index_count > kMaxIndexes || index_count * 16 > body.remaining()) {
      return Status::Corruption("snapshot index count out of bounds");
    }
    for (uint64_t i = 0; i < index_count; ++i) {
      TIP_ASSIGN_OR_RETURN(std::string_view index_name, body.String());
      TIP_ASSIGN_OR_RETURN(uint64_t column, body.U64());
      if (column >= table->columns().size()) {
        return Status::Corruption("snapshot index column out of range");
      }
      const std::string sql = "CREATE INDEX " + std::string(index_name) +
                              " ON " + table->name() + " (" +
                              table->columns()[column].name +
                              ") USING interval";
      TIP_ASSIGN_OR_RETURN(ResultSet created_index, db->Execute(sql));
      (void)created_index;
    }

    TIP_ASSIGN_OR_RETURN(uint64_t row_count, body.U64());
    const uint64_t min_bytes_per_row = table->columns().size();
    if (min_bytes_per_row != 0 &&
        row_count > body.remaining() / min_bytes_per_row) {
      return Status::Corruption("snapshot row count out of bounds");
    }
    for (uint64_t r = 0; r < row_count; ++r) {
      Row row;
      row.reserve(table->columns().size());
      for (const Column& col : table->columns()) {
        TIP_ASSIGN_OR_RETURN(std::string_view flag, body.Bytes(1));
        if (flag[0] == 0) {
          row.push_back(Datum::NullOf(col.type));
          continue;
        }
        if (flag[0] != 1) {
          return Status::Corruption(
              "snapshot null flag is neither 0 nor 1");
        }
        TIP_ASSIGN_OR_RETURN(std::string_view payload, body.String());
        const TypeOps& ops = types.Get(col.type).ops;
        Result<Datum> value = ops.deserialize ? ops.deserialize(payload)
                                              : ops.parse(payload);
        if (!value.ok()) return value.status();
        row.push_back(std::move(*value));
      }
      table->heap().Insert(std::move(row));
    }
    // Re-frame the outer reader to just after this table.
    reader = Reader(rest.substr(body.pos()));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot");
  }
  return Status::OK();
}

/// Best-effort table name from a (possibly corrupt) section body: the
/// body starts with a length-prefixed name, and a single flipped byte
/// elsewhere in the section leaves that prefix intact, so salvage can
/// usually still say *which* table it lost. Empty when the prefix
/// itself is implausible.
std::string GuessSectionName(std::string_view body) {
  Reader reader(body);
  Result<std::string_view> name = reader.String();
  if (!name.ok() || name->empty() || name->size() > 256) return "";
  for (const char c : *name) {
    if (!std::isprint(static_cast<unsigned char>(c))) return "";
  }
  return std::string(*name);
}

/// One CRC-verified section body, located within the snapshot stream.
struct SectionRef {
  std::string_view body;
  size_t index = 0;     // position in the table-section sequence
  uint64_t offset = 0;  // byte offset of the body in the file
};

void RecordSkip(SalvageReport* report, size_t index, std::string_view table,
                uint64_t offset, std::string cause) {
  if (report == nullptr) return;
  report->tables_skipped += 1;
  report->detail += "section " + std::to_string(index) +
                    (table.empty() ? "" : " ('" + std::string(table) + "')") +
                    ": " + cause + "\n";
  SalvageReport::SkippedSection skip;
  skip.index = index;
  skip.table = std::string(table);
  skip.offset = offset;
  skip.cause = std::move(cause);
  report->skipped.push_back(std::move(skip));
}

/// Splits a v2 stream into its CRC-verified section bodies. `strict`
/// demands a valid footer and exact framing; salvage mode records
/// problems in `report` and returns whatever sections survived.
/// Fault point: "snapshot.section" (per section, fires as a checksum
/// failure would).
Status ReadV2Sections(std::string_view bytes,
                      std::vector<SectionRef>* sections, bool strict,
                      SalvageReport* report) {
  Reader reader(bytes.substr(kMagicLen));
  TIP_ASSIGN_OR_RETURN(uint64_t table_count, reader.U64());
  if (table_count > kMaxTables) {
    return Status::Corruption("snapshot table count out of bounds");
  }
  for (uint64_t t = 0; t < table_count; ++t) {
    Result<uint64_t> len = reader.U64();
    Result<uint32_t> crc = len.ok() ? reader.U32() : len.status();
    const uint64_t body_offset = kMagicLen + reader.pos();
    Result<std::string_view> body =
        crc.ok() ? reader.Bytes(*len) : crc.status();
    if (!body.ok()) {
      if (strict) {
        return Status::Corruption(
            "truncated snapshot (table section " + std::to_string(t) +
            " of " + std::to_string(table_count) + ", at byte offset " +
            std::to_string(body_offset) + ")");
      }
      if (report != nullptr) {
        RecordSkip(report, t, "", body_offset,
                   "truncated, remaining sections lost");
        report->tables_skipped += table_count - t - 1;
      }
      return Status::OK();
    }
    const bool injected = !fault::MaybeFail("snapshot.section").ok();
    if (injected || Crc32(*body) != *crc) {
      const std::string cause =
          injected ? "injected section fault" : "checksum mismatch";
      const std::string guessed = GuessSectionName(*body);
      if (strict) {
        return Status::Corruption(
            "snapshot section " + std::to_string(t) +
            (guessed.empty() ? "" : " ('" + guessed + "')") + " " + cause +
            " at byte offset " + std::to_string(body_offset) + " (" +
            std::to_string(body->size()) + " bytes)");
      }
      RecordSkip(report, t, guessed, body_offset, cause);
      continue;
    }
    sections->push_back({*body, static_cast<size_t>(t), body_offset});
  }
  // Footer: length-prefixed so a reader can confirm the file really
  // ends where the writer intended.
  const size_t payload_bytes = kMagicLen + reader.pos();
  Result<uint64_t> footer_len = reader.U64();
  Result<std::string_view> footer =
      footer_len.ok() ? reader.Bytes(*footer_len) : footer_len.status();
  Status footer_status = Status::OK();
  if (!footer.ok()) {
    footer_status = Status::Corruption("truncated snapshot (missing footer)");
  } else {
    Reader f(*footer);
    Result<std::string_view> magic = f.Bytes(kMagicLen);
    if (!magic.ok() ||
        std::memcmp(magic->data(), kFooterMagic, kMagicLen) != 0) {
      footer_status = Status::Corruption("snapshot footer magic mismatch");
    } else {
      TIP_ASSIGN_OR_RETURN(uint64_t footer_tables, f.U64());
      TIP_ASSIGN_OR_RETURN(uint64_t footer_payload, f.U64());
      TIP_ASSIGN_OR_RETURN(uint32_t footer_crc, f.U32());
      const std::string_view footer_head =
          footer->substr(0, footer->size() - 4);
      if (Crc32(footer_head) != footer_crc) {
        footer_status = Status::Corruption("snapshot footer checksum "
                                           "mismatch");
      } else if (footer_tables != table_count ||
                 footer_payload != payload_bytes) {
        footer_status =
            Status::Corruption("snapshot footer disagrees with contents");
      } else if (!f.AtEnd() || !reader.AtEnd()) {
        footer_status =
            Status::Corruption("trailing bytes after snapshot footer");
      }
    }
  }
  if (!footer_status.ok()) {
    if (strict) return footer_status;
    if (report != nullptr) {
      report->detail += std::string(footer_status.message()) + "\n";
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> SaveSnapshot(const Database& db) {
  TIP_ASSIGN_OR_RETURN(std::vector<std::string> chunks, SnapshotChunks(db));
  size_t size = 0;
  for (const std::string& chunk : chunks) size += chunk.size();
  std::string out;
  out.reserve(size);
  for (const std::string& chunk : chunks) out.append(chunk);
  return out;
}

Status SaveSnapshotToFile(const Database& db, std::string_view path) {
  TIP_ASSIGN_OR_RETURN(std::vector<std::string> chunks, SnapshotChunks(db));
  const std::vector<std::string_view> pieces(chunks.begin(), chunks.end());

  // Crash safety: write + fsync a temp file, atomically rename it over
  // the destination, then fsync the parent directory (the rename alone
  // is not durable on ext4/XFS). A crash at any point leaves either the
  // old snapshot or the complete new one — never a torn file — and the
  // fault points let tests kill the save at each step.
  return fs::AtomicWriteFile(std::string(path), pieces, "snapshot");
}

Status LoadSnapshot(Database* db, std::string_view bytes) {
  if (bytes.size() < kMagicLen) {
    return Status::Corruption("not a TIP snapshot");
  }
  std::vector<std::string> created;
  if (std::memcmp(bytes.data(), kMagicV1, kMagicLen) == 0) {
    Status s = LoadSnapshotV1(db, bytes.substr(kMagicLen), &created);
    if (!s.ok()) DropCreated(db, created);
    return s;
  }
  if (std::memcmp(bytes.data(), kMagicV2, kMagicLen) != 0) {
    return Status::Corruption("not a TIP snapshot");
  }

  // Phase 1: verify all framing and checksums before touching the
  // catalog, so most corrupt files fail with the database untouched.
  std::vector<SectionRef> sections;
  TIP_RETURN_IF_ERROR(
      ReadV2Sections(bytes, &sections, /*strict=*/true, nullptr));

  // Phase 2: apply. Section contents can still fail (unknown type,
  // name collision), in which case everything created so far is
  // dropped.
  for (const SectionRef& section : sections) {
    Status s = ApplyTableBody(db, section.body, &created);
    if (!s.ok()) {
      DropCreated(db, created);
      return Annotate(s, "snapshot section " +
                             std::to_string(section.index) +
                             " (byte offset " +
                             std::to_string(section.offset) + ")");
    }
  }
  return Status::OK();
}

Status LoadSnapshotFromFile(Database* db, std::string_view path) {
  Result<std::string> bytes = fs::ReadFile(std::string(path));
  if (!bytes.ok()) {
    return Annotate(bytes.status(), "snapshot '" + std::string(path) + "'");
  }
  Status s = LoadSnapshot(db, *bytes);
  if (!s.ok()) return Annotate(s, "snapshot '" + std::string(path) + "'");
  return s;
}

Status SalvageSnapshot(Database* db, std::string_view bytes,
                       SalvageReport* report) {
  SalvageReport local;
  if (report == nullptr) report = &local;
  *report = SalvageReport{};
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagicV2, kMagicLen) != 0) {
    return Status::Corruption("not a TIP v2 snapshot");
  }
  std::vector<SectionRef> sections;
  TIP_RETURN_IF_ERROR(
      ReadV2Sections(bytes, &sections, /*strict=*/false, report));
  for (const SectionRef& section : sections) {
    // Per-table isolation: a section that fails to apply is dropped
    // (with its half-created table) without giving up on the rest.
    std::vector<std::string> created;
    Status s = ApplyTableBody(db, section.body, &created);
    if (!s.ok()) {
      DropCreated(db, created);
      RecordSkip(report, section.index, GuessSectionName(section.body),
                 section.offset, std::string(s.message()));
      continue;
    }
    report->tables_recovered += 1;
  }
  return Status::OK();
}

}  // namespace tip::engine
