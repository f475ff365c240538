#ifndef TIP_ENGINE_STORAGE_HEAP_TABLE_H_
#define TIP_ENGINE_STORAGE_HEAP_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "engine/types/datum.h"

namespace tip::engine {

/// Identifies one stored row: page number in the high bits, slot within
/// the page in the low bits. Stable for the lifetime of the row (updates
/// happen in place; slots of deleted rows are not reused, mirroring a
/// heap file before VACUUM — only a ROLLBACK puts the deleted row itself
/// back into its slot).
using RowId = uint64_t;

inline constexpr uint32_t kRowsPerPage = 256;

inline RowId MakeRowId(uint32_t page, uint32_t slot) {
  return (static_cast<uint64_t>(page) << 32) | slot;
}
inline uint32_t RowIdPage(RowId id) { return static_cast<uint32_t>(id >> 32); }
inline uint32_t RowIdSlot(RowId id) {
  return static_cast<uint32_t>(id & 0xFFFFFFFFu);
}

/// An in-memory heap file: an append-only sequence of fixed-capacity
/// pages of rows with a per-page validity bitmap. This deliberately
/// mimics the access pattern of a disk heap (page-at-a-time scans,
/// stable row ids, tombstoned deletes) so that scan-vs-index benchmark
/// shapes carry over.
class HeapTable {
 public:
  HeapTable() = default;

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  /// Appends a row; returns its stable id.
  RowId Insert(Row row);

  /// Tombstones a row. NotFound if the id is invalid or already deleted.
  /// When `prior` is given, the deleted row is moved into it.
  Status Delete(RowId id, Row* prior = nullptr);

  /// Replaces a row in place. NotFound if the id is invalid or deleted.
  /// When `prior` is given, the replaced row is moved into it.
  Status Update(RowId id, Row row, Row* prior = nullptr);

  /// Puts `row` back into the tombstoned slot `id` (ROLLBACK of a
  /// Delete). The row regains its old place in scan order, so every
  /// live row keeps the ordinal it had before the delete. NotFound if
  /// the slot was never allocated or is live.
  Status Revive(RowId id, Row row);

  /// Fetches a live row; nullptr if deleted or out of range.
  const Row* Get(RowId id) const;

  /// Number of live rows.
  size_t row_count() const { return live_rows_; }

  /// Number of allocated pages (the unit morsels are carved from).
  uint32_t page_count() const {
    return static_cast<uint32_t>(pages_.size());
  }

  /// Forward scan over live rows in row-id order, restricted to pages
  /// in [page_begin, page_end).
  class Cursor {
   public:
    explicit Cursor(const HeapTable* table)
        : Cursor(table, 0, table->page_count()) {}
    Cursor(const HeapTable* table, uint32_t page_begin, uint32_t page_end)
        : table_(table), page_(page_begin), page_end_(page_end) {}

    /// Advances to the next live row; returns false at end of range.
    bool Next(RowId* id, const Row** row);

   private:
    const HeapTable* table_;
    uint32_t page_;
    uint32_t page_end_;
    uint32_t slot_ = 0;
  };

  Cursor Scan() const { return Cursor(this); }
  /// Scan over the page range [page_begin, page_end) only.
  Cursor ScanPages(uint32_t page_begin, uint32_t page_end) const {
    return Cursor(this, page_begin, std::min(page_end, page_count()));
  }

  /// Monotonically increasing change counter; every Insert, Update,
  /// Delete and Revive bumps it by exactly one. Indexes use it to detect
  /// staleness.
  uint64_t version() const { return version_; }

  /// How many version bumps the change journal remembers.
  static constexpr size_t kJournalCapacity = 4096;

  /// Appends to `out` the row touched by each version bump after
  /// `version`, oldest first (a row touched twice appears twice).
  /// Returns false, appending nothing, when those bumps are older than
  /// the journal's window: the caller must rescan the heap.
  bool ChangedSince(uint64_t version, std::vector<RowId>* out) const;

  /// Hash of one row's logical content, or nullopt when hashing is
  /// currently disabled. Installed by the owning database so the heap
  /// stays ignorant of serialization.
  using RowHasher = std::function<std::optional<uint64_t>(const Row&)>;

  /// Installs (or replaces) the hasher and reseeds the running
  /// checksum from the current live rows.
  void set_row_hasher(RowHasher hasher);
  const RowHasher& row_hasher() const { return row_hasher_; }

  /// Order-independent wrapping sum of per-row hashes over the live
  /// rows, maintained incrementally by every mutation.
  /// Meaningful only while checksum_maintained() is true.
  uint64_t content_checksum() const { return content_checksum_; }

  /// False until a hasher is installed, and false again after any
  /// mutation the hasher declined to hash (checksums switched off);
  /// ReseedChecksum restores maintenance.
  bool checksum_maintained() const { return checksum_maintained_; }

  /// Recomputes the checksum from scratch over the live rows.
  void ReseedChecksum();

 private:
  struct Page {
    std::vector<Row> rows;       // size() <= kRowsPerPage
    std::vector<bool> live;      // parallel validity bitmap
  };

  void AddRowHash(const Row& row);
  void SubRowHash(const Row& row);
  /// The live row `id` names, or nullptr.
  Row* LiveRow(RowId id);
  /// Bumps the version and journals `id` as the row it touched.
  void Touch(RowId id);

  std::vector<std::unique_ptr<Page>> pages_;
  size_t live_rows_ = 0;
  uint64_t version_ = 0;
  // Change journal: journal_[i] is the row touched by the bump to
  // version journal_base_ + i + 1, so journal_base_ + size() ==
  // version_. A sliding window: past kJournalCapacity the oldest entry
  // is dropped.
  std::deque<RowId> journal_;
  uint64_t journal_base_ = 0;
  RowHasher row_hasher_;
  uint64_t content_checksum_ = 0;
  bool checksum_maintained_ = false;
};

/// One contiguous page range of a heap, claimed by a scan worker.
struct Morsel {
  uint32_t page_begin = 0;
  uint32_t page_end = 0;  // exclusive
};

/// Carves a heap into fixed-size morsels handed out atomically: any
/// number of workers call Next concurrently until the table is
/// exhausted, so fast workers naturally take more morsels than slow
/// ones (morsel-driven scheduling). The heap must not be written to
/// while a MorselSource over it is in use.
class MorselSource {
 public:
  MorselSource(const HeapTable* table, uint32_t pages_per_morsel)
      : table_(table),
        pages_per_morsel_(std::max<uint32_t>(pages_per_morsel, 1)) {}

  /// Claims the next unclaimed page range; false when the heap is
  /// exhausted. Thread-safe.
  bool Next(Morsel* out) {
    const uint32_t total = table_->page_count();
    const uint32_t begin =
        next_page_.fetch_add(pages_per_morsel_, std::memory_order_relaxed);
    if (begin >= total) return false;
    out->page_begin = begin;
    out->page_end = std::min(begin + pages_per_morsel_, total);
    return true;
  }

 private:
  const HeapTable* table_;
  const uint32_t pages_per_morsel_;
  std::atomic<uint32_t> next_page_{0};
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_STORAGE_HEAP_TABLE_H_
