#include "engine/storage/heap_table.h"

namespace tip::engine {

RowId HeapTable::Insert(Row row) {
  if (pages_.empty() || pages_.back()->rows.size() >= kRowsPerPage) {
    pages_.push_back(std::make_unique<Page>());
    pages_.back()->rows.reserve(kRowsPerPage);
  }
  Page& page = *pages_.back();
  const uint32_t page_no = static_cast<uint32_t>(pages_.size() - 1);
  const uint32_t slot = static_cast<uint32_t>(page.rows.size());
  page.rows.push_back(std::move(row));
  page.live.push_back(true);
  AddRowHash(page.rows.back());
  ++live_rows_;
  const RowId id = MakeRowId(page_no, slot);
  Touch(id);
  return id;
}

Status HeapTable::Delete(RowId id, Row* prior) {
  Row* row = LiveRow(id);
  if (row == nullptr) return Status::NotFound("row id not found");
  SubRowHash(*row);
  pages_[RowIdPage(id)]->live[RowIdSlot(id)] = false;
  if (prior != nullptr) *prior = std::move(*row);
  row->clear();  // release value storage eagerly
  --live_rows_;
  Touch(id);
  return Status::OK();
}

Status HeapTable::Update(RowId id, Row row, Row* prior) {
  Row* target = LiveRow(id);
  if (target == nullptr) return Status::NotFound("row id not found");
  SubRowHash(*target);
  if (prior != nullptr) *prior = std::move(*target);
  *target = std::move(row);
  AddRowHash(*target);
  Touch(id);
  return Status::OK();
}

Status HeapTable::Revive(RowId id, Row row) {
  const uint32_t page_no = RowIdPage(id);
  const uint32_t slot = RowIdSlot(id);
  if (page_no >= pages_.size() || slot >= pages_[page_no]->rows.size() ||
      pages_[page_no]->live[slot]) {
    return Status::NotFound("row id is not a tombstone");
  }
  pages_[page_no]->rows[slot] = std::move(row);
  pages_[page_no]->live[slot] = true;
  AddRowHash(pages_[page_no]->rows[slot]);
  ++live_rows_;
  Touch(id);
  return Status::OK();
}

bool HeapTable::ChangedSince(uint64_t version,
                             std::vector<RowId>* out) const {
  if (version < journal_base_ || version > version_) return false;
  const auto first =
      journal_.begin() + static_cast<ptrdiff_t>(version - journal_base_);
  out->insert(out->end(), first, journal_.end());
  return true;
}

void HeapTable::Touch(RowId id) {
  ++version_;
  journal_.push_back(id);
  if (journal_.size() > kJournalCapacity) {
    journal_.pop_front();
    ++journal_base_;
  }
}

void HeapTable::set_row_hasher(RowHasher hasher) {
  row_hasher_ = std::move(hasher);
  ReseedChecksum();
}

void HeapTable::ReseedChecksum() {
  content_checksum_ = 0;
  checksum_maintained_ = row_hasher_ != nullptr;
  if (!checksum_maintained_) return;
  Cursor cursor = Scan();
  RowId id;
  const Row* row;
  while (checksum_maintained_ && cursor.Next(&id, &row)) AddRowHash(*row);
}

void HeapTable::AddRowHash(const Row& row) {
  if (!checksum_maintained_) return;
  if (std::optional<uint64_t> h = row_hasher_(row)) {
    content_checksum_ += *h;
  } else {
    checksum_maintained_ = false;
    content_checksum_ = 0;
  }
}

void HeapTable::SubRowHash(const Row& row) {
  if (!checksum_maintained_) return;
  if (std::optional<uint64_t> h = row_hasher_(row)) {
    content_checksum_ -= *h;
  } else {
    checksum_maintained_ = false;
    content_checksum_ = 0;
  }
}

const Row* HeapTable::Get(RowId id) const {
  const uint32_t page_no = RowIdPage(id);
  const uint32_t slot = RowIdSlot(id);
  if (page_no >= pages_.size() || slot >= pages_[page_no]->rows.size() ||
      !pages_[page_no]->live[slot]) {
    return nullptr;
  }
  return &pages_[page_no]->rows[slot];
}

Row* HeapTable::LiveRow(RowId id) { return const_cast<Row*>(Get(id)); }

bool HeapTable::Cursor::Next(RowId* id, const Row** row) {
  while (page_ < page_end_ && page_ < table_->pages_.size()) {
    const Page& page = *table_->pages_[page_];
    while (slot_ < page.rows.size()) {
      const uint32_t slot = slot_++;
      if (page.live[slot]) {
        *id = MakeRowId(page_, slot);
        *row = &page.rows[slot];
        return true;
      }
    }
    ++page_;
    slot_ = 0;
  }
  return false;
}

}  // namespace tip::engine
