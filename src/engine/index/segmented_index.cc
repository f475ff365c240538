#include "engine/index/segmented_index.h"

#include <algorithm>
#include <climits>
#include <iterator>
#include <utility>

#include "common/fault_injection.h"

namespace tip::engine {

namespace {

/// The "integrity.indexentry" fault site, the fault matrix's index rot:
/// a fired fault records the entry under a wrong row id, so the index
/// diverges from the heap exactly as a rotted index page would — CHECK's
/// cross-check must catch both the phantom entry and the now-unindexed
/// live row. Both the full build and the write catch-up pass here.
IntervalEntry AbsoluteEntry(const IntervalKey& key, RowId id) {
  if (!fault::MaybeFail("integrity.indexentry").ok()) id = ~id;
  return IntervalEntry{key.start, key.end, id};
}

/// An immutable index over `entries`; null when empty.
std::shared_ptr<const IntervalIndex> BuildPart(
    std::vector<IntervalEntry> entries) {
  if (entries.empty()) return nullptr;
  return std::make_shared<const IntervalIndex>(
      IntervalIndex::Build(std::move(entries)));
}

bool Contains(const std::vector<RowId>& sorted, RowId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

/// `entries` less those of the rows in `rows` (sorted).
std::vector<IntervalEntry> Without(const std::vector<IntervalEntry>& entries,
                                   const std::vector<RowId>& rows) {
  std::vector<IntervalEntry> out;
  out.reserve(entries.size());
  for (const IntervalEntry& e : entries) {
    if (!Contains(rows, e.row)) out.push_back(e);
  }
  return out;
}

}  // namespace

IndexStatsSnapshot IndexStats::Snapshot() const {
  IndexStatsSnapshot out;
  out.absolute_builds = absolute_builds_.load(std::memory_order_relaxed);
  out.overlay_builds = overlay_builds_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  out.rows_returned = rows_returned_.load(std::memory_order_relaxed);
  out.delta_applies = delta_applies_.load(std::memory_order_relaxed);
  return out;
}

void IntervalIndexView::Collect(int64_t qs, int64_t qe,
                                std::vector<RowId>* out) const {
  if (parts_.absolute != nullptr) {
    const size_t first = out->size();
    parts_.absolute->FindOverlapping(qs, qe, out);
    if (parts_.stale != nullptr) {
      const std::vector<RowId>& stale = *parts_.stale;
      out->erase(std::remove_if(out->begin() + static_cast<ptrdiff_t>(first),
                                out->end(),
                                [&stale](RowId id) {
                                  return Contains(stale, id);
                                }),
                 out->end());
    }
  }
  if (parts_.delta != nullptr) {
    for (const IntervalEntry& e : *parts_.delta) {
      if (e.start <= qe && e.end >= qs) out->push_back(e.row);
    }
  }
  if (parts_.overlay != nullptr) parts_.overlay->FindOverlapping(qs, qe, out);
}

void IntervalIndexView::FindOverlapping(int64_t qs, int64_t qe,
                                        std::vector<RowId>* out) const {
  const size_t before = out->size();
  Collect(qs, qe, out);
  if (stats_ != nullptr) stats_->RecordProbe(out->size() - before);
}

size_t IntervalIndexView::entry_count() const {
  std::vector<RowId> all;
  Collect(INT64_MIN, INT64_MAX, &all);
  return all.size();
}

Status IntervalIndexState::FullBuild(const HeapTable& heap, size_t column,
                                     const IntervalKeyFn& key_fn,
                                     const TxContext& ctx) {
  // One scan partitions the rows into the persistent absolute segment
  // and the NOW-dependent overlay. Everything is staged in locals and
  // swapped in only on success.
  std::vector<IntervalEntry> absolute_entries;
  std::vector<IntervalEntry> overlay_entries;
  std::vector<RowId> now_rows;
  absolute_entries.reserve(heap.row_count());
  uint64_t scanned = 0;
  HeapTable::Cursor cursor = heap.Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    ++scanned;
    const Datum& value = (*row)[column];
    if (value.is_null()) continue;
    TIP_ASSIGN_OR_RETURN(IntervalKey key, key_fn(value, ctx));
    if (key.now_dependent) {
      now_rows.push_back(id);
      if (!key.empty) {
        overlay_entries.push_back(IntervalEntry{key.start, key.end, id});
      }
    } else if (!key.empty) {
      absolute_entries.push_back(AbsoluteEntry(key, id));
    }
  }
  parts_.absolute = std::make_shared<const IntervalIndex>(
      IntervalIndex::Build(std::move(absolute_entries)));
  parts_.stale = nullptr;
  parts_.delta = nullptr;
  now_rows_ = std::move(now_rows);
  parts_.overlay = BuildPart(std::move(overlay_entries));
  built_version_ = heap.version();
  absolute_valid_ = true;
  distrusted_ = false;
  overlay_now_ = ctx.now.seconds();
  overlay_valid_ = true;
  stats_->RecordAbsoluteBuild(scanned);
  if (!now_rows_.empty()) stats_->RecordOverlayBuild(0);
  return Status::OK();
}

Status IntervalIndexState::CatchUp(const HeapTable& heap, size_t column,
                                   const IntervalKeyFn& key_fn,
                                   const TxContext& ctx,
                                   const std::vector<RowId>& changed,
                                   std::vector<RowId> stale) {
  // Re-key every changed row from its current image (a deleted row
  // simply drops out): an absolute key goes to the delta, a
  // NOW-dependent one to the overlay's domain.
  std::vector<IntervalEntry> delta_entries =
      parts_.delta != nullptr ? Without(*parts_.delta, changed)
                              : std::vector<IntervalEntry>();
  std::vector<RowId> now_changed;  // sorted, as `changed` is
  for (RowId id : changed) {
    const Row* row = heap.Get(id);
    if (row == nullptr || (*row)[column].is_null()) continue;
    TIP_ASSIGN_OR_RETURN(IntervalKey key, key_fn((*row)[column], ctx));
    if (key.now_dependent) {
      now_changed.push_back(id);
    } else if (!key.empty) {
      delta_entries.push_back(AbsoluteEntry(key, id));
    }
  }

  // The overlay's domain moves when a changed row left or joined it (a
  // closing UPDATE moves a row from the overlay into the delta); the
  // GetView overlay arm then re-grounds the new domain.
  std::vector<RowId> now_rows;
  std::set_difference(now_rows_.begin(), now_rows_.end(), changed.begin(),
                      changed.end(), std::back_inserter(now_rows));
  if (!now_changed.empty() || now_rows.size() != now_rows_.size()) {
    const size_t kept = now_rows.size();
    now_rows.insert(now_rows.end(), now_changed.begin(), now_changed.end());
    std::inplace_merge(now_rows.begin(),
                       now_rows.begin() + static_cast<ptrdiff_t>(kept),
                       now_rows.end());
    now_rows_ = std::move(now_rows);
    overlay_valid_ = false;
    if (now_rows_.empty()) parts_.overlay = nullptr;
  }

  parts_.delta = delta_entries.empty()
                     ? nullptr
                     : std::make_shared<const std::vector<IntervalEntry>>(
                           std::move(delta_entries));
  parts_.stale = std::make_shared<const std::vector<RowId>>(std::move(stale));
  built_version_ = heap.version();
  stats_->RecordDeltaApply(changed.size());
  return Status::OK();
}

Result<IntervalIndexView> IntervalIndexState::GetView(
    const HeapTable& heap, size_t column, const IntervalKeyFn& key_fn,
    const TxContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = ctx.now.seconds();

  if (!absolute_valid_ || built_version_ != heap.version()) {
    std::vector<RowId> changed;
    std::vector<RowId> stale;
    bool incremental = absolute_valid_ && !distrusted_ &&
                       heap.ChangedSince(built_version_, &changed);
    if (incremental) {
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end()),
                    changed.end());
      if (parts_.stale != nullptr) {
        std::set_union(parts_.stale->begin(), parts_.stale->end(),
                       changed.begin(), changed.end(),
                       std::back_inserter(stale));
      } else {
        stale = changed;
      }
      incremental = stale.size() <=
                    std::max<size_t>(64, parts_.absolute->entry_count() / 16);
    }
    if (incremental) {
      TIP_RETURN_IF_ERROR(
          CatchUp(heap, column, key_fn, ctx, changed, std::move(stale)));
    } else {
      TIP_RETURN_IF_ERROR(FullBuild(heap, column, key_fn, ctx));
    }
  }

  if (!now_rows_.empty() && (!overlay_valid_ || overlay_now_ != now)) {
    // The transaction time moved (or a write moved the overlay's
    // domain): re-ground only the NOW-dependent rows. An all-absolute
    // index skips this entirely — its answers are NOW-invariant.
    std::vector<IntervalEntry> overlay_entries;
    overlay_entries.reserve(now_rows_.size());
    for (RowId id : now_rows_) {
      const Row* row = heap.Get(id);
      if (row == nullptr) continue;  // unreachable: version caught up
      const Datum& value = (*row)[column];
      if (value.is_null()) continue;
      TIP_ASSIGN_OR_RETURN(IntervalKey key, key_fn(value, ctx));
      if (!key.empty) {
        overlay_entries.push_back(IntervalEntry{key.start, key.end, id});
      }
    }
    parts_.overlay = BuildPart(std::move(overlay_entries));
    overlay_now_ = now;
    overlay_valid_ = true;
    stats_->RecordOverlayBuild(now_rows_.size());
  }

  return IntervalIndexView(parts_, stats_);
}

}  // namespace tip::engine
